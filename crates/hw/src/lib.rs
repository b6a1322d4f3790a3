//! # tint-hw — machine model for the TintMalloc reproduction
//!
//! This crate models the *hardware facts* that the TintMalloc paper (Pan,
//! Gownivaripalli, Mueller — IPDPS 2016) depends on:
//!
//! * **Topology** ([`topology`]): sockets, NUMA nodes (= memory controllers),
//!   cores, and the hop-distance matrix between cores and nodes.
//! * **Physical address bit mapping** ([`addrmap`]): how a physical address
//!   decomposes into node / channel / rank / bank / row / column fields and
//!   the LLC color bits, including the paper's bank-color formula (eq. 1).
//! * **PCI configuration space emulation** ([`pci`]): the BIOS-programmed
//!   registers (DRAM base/limit, controller select, CS base, bank address
//!   mapping) from which TintMalloc derives the bit mapping at boot
//!   (paper §III.A).
//! * **Machine presets** ([`machine`]): the dual-socket AMD Opteron 6128 of
//!   the paper's evaluation plus small configurations for tests.
//! * **An unseeded integer-key hasher** ([`fxhash`]) for the simulator's
//!   hot lookup maps.
//!
//! Everything downstream (the DRAM simulator, the cache hierarchy, the
//! simulated kernel, and the TintMalloc allocator itself) is parameterised by
//! [`machine::MachineConfig`].
//!
//! ## Example
//!
//! ```
//! use tint_hw::machine::MachineConfig;
//! use tint_hw::types::PhysAddr;
//!
//! let m = MachineConfig::opteron_6128();
//! assert_eq!(m.mapping.bank_color_count(), 128); // paper: 2^7 bank colors
//! assert_eq!(m.mapping.llc_color_count(), 32);   // paper: 2^5 LLC colors
//!
//! let d = m.mapping.decode(PhysAddr(0x4030_2000));
//! assert_eq!(m.mapping.decode_frame(PhysAddr(0x4030_2000).frame()).bank_color, d.bank_color);
//! ```

pub mod addrmap;
pub mod decoder;
pub mod fxhash;
pub mod machine;
pub mod pci;
pub mod rng;
pub mod topology;
pub mod types;

pub use addrmap::{AddressMapping, DecodedAddr, DecodedFrame};
pub use machine::MachineConfig;
pub use topology::Topology;
pub use types::{
    BankColor, BankId, ChannelId, CoreId, FrameNumber, LlcColor, NodeId, PageNumber, PhysAddr,
    RankId, Rw, SocketId, VirtAddr, PAGE_SHIFT, PAGE_SIZE,
};
