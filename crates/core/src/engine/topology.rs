//! The physical plant: hosts, fabric switches, CXL Type 3 devices, the
//! remote socket, and the address-spreading hash — everything the
//! pipeline stages contend on.

#![deny(missing_docs)]

use cxlsim::{CxlParams, FabricSwitch, FlexBusLink, Topology, Type3Device};
use memsim::{DramConfig, DramDevice};
use simkit::SimTime;

use super::config::{ComputeSite, SystemConfig};
use crate::buffer::OnSwitchBuffer;
use crate::ooo::AccumEngine;

/// Per-host simulation state: lookup cores, FlexBus links, local DRAM,
/// and (for RecNMP) the DIMM cache.
#[derive(Clone)]
pub(crate) struct HostCtx {
    /// Next-free time of each lookup core.
    pub cores: Vec<SimTime>,
    /// Host→switch request link.
    pub req_link: FlexBusLink,
    /// Switch→host response link.
    pub rsp_link: FlexBusLink,
    /// Host-local DRAM.
    pub dram: DramDevice,
    /// RecNMP's DIMM-side cache, when configured.
    pub dimm_cache: Option<OnSwitchBuffer>,
    /// Time this host finishes its last accepted batch.
    pub next_free: SimTime,
}

/// Per-switch simulation state: the switch fabric model plus the PIFS
/// process-core blocks living inside it.
#[derive(Clone)]
pub(crate) struct SwitchCtx {
    /// The fabric switch (transit timing, CNV flag).
    pub sw: FabricSwitch,
    /// Out-of-order (or in-order) accumulation engine.
    pub engine: AccumEngine,
    /// On-switch SRAM row buffer, when configured.
    pub buffer: Option<OnSwitchBuffer>,
    /// Instruction decode pipeline occupancy.
    pub decode_free: SimTime,
}

/// The composed hardware plant of one simulated system.
///
/// `Clone` snapshots the entire plant — every link cursor, DRAM bank
/// timer, buffer and process-core register — which is what makes a
/// [`SimCheckpoint`](crate::engine::checkpoint::SimCheckpoint) a pure
/// deep copy.
#[derive(Clone)]
pub(crate) struct Plant {
    /// Host/switch/device adjacency and hop latencies.
    pub topo: Topology,
    /// All fabric switches.
    pub switches: Vec<SwitchCtx>,
    /// All CXL Type 3 devices.
    pub devices: Vec<Type3Device>,
    /// All hosts.
    pub hosts: Vec<HostCtx>,
    /// Link to the remote socket.
    pub remote_link: FlexBusLink,
    /// Remote-socket DRAM (partially populated channels, §III).
    pub remote_dram: DramDevice,
}

impl Plant {
    /// Builds the idle plant described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no devices, zero
    /// hosts, zero switches).
    pub(crate) fn build(cfg: &SystemConfig) -> Plant {
        assert!(cfg.n_hosts >= 1, "need at least one host");
        assert!(cfg.n_devices >= 1, "need at least one device");
        assert!(cfg.n_switches >= 1, "need at least one switch");

        let topo = Topology::new(cfg.n_switches, cfg.n_devices, cfg.n_hosts, cfg.cxl);

        let dim = cfg.model.emb_dim;
        let switches = (0..cfg.n_switches)
            .map(|_| SwitchCtx {
                sw: FabricSwitch::new(cfg.cxl),
                engine: AccumEngine::new(cfg.ooo, dim),
                buffer: if cfg.compute == ComputeSite::Switch {
                    cfg.buffer.map(|b| {
                        OnSwitchBuffer::new(b.policy, b.capacity_bytes, cfg.model.row_bytes())
                    })
                } else {
                    None
                },
                decode_free: SimTime::ZERO,
            })
            .collect();

        let devices = (0..cfg.n_devices)
            .map(|_| Type3Device::new(cfg.cxl))
            .collect();

        let hosts = (0..cfg.n_hosts)
            .map(|_| HostCtx {
                cores: vec![SimTime::ZERO; cfg.cores_per_host as usize],
                req_link: FlexBusLink::new(&cfg.cxl),
                rsp_link: FlexBusLink::new(&cfg.cxl),
                // The characterization host populates 12 DDR5 channels
                // per socket (§III); the scaled host keeps that width.
                dram: DramDevice::new(DramConfig {
                    org: memsim::DramOrg {
                        channels: 12,
                        ..memsim::DramOrg::table2_local()
                    },
                    ..DramConfig::ddr5_4800_local()
                }),
                dimm_cache: if cfg.compute == ComputeSite::Dimm {
                    cfg.buffer.map(|b| {
                        OnSwitchBuffer::new(b.policy, b.capacity_bytes, cfg.model.row_bytes())
                    })
                } else {
                    None
                },
                next_free: SimTime::ZERO,
            })
            .collect();

        Plant {
            topo,
            switches,
            devices,
            hosts,
            remote_link: FlexBusLink::new(&CxlParams {
                link_gbps: 32,
                port_latency_ns: 60,
                ..CxlParams::default()
            }),
            // Partial channel population: the §III observation that
            // accessing a slice of a remote socket's memory yields poor
            // effective bandwidth.
            remote_dram: DramDevice::new(DramConfig {
                org: memsim::DramOrg {
                    channels: 1,
                    ..memsim::DramOrg::table2_local()
                },
                ..DramConfig::ddr5_4800_local()
            }),
        }
    }
}

/// Spreads a (scaled-down) embedding address across the full physical
/// address space of a memory device. Scaled tables occupy a few MB,
/// which would alias onto a handful of DRAM bank-rows and serialize on
/// tRC — an artifact real multi-GB tables do not have. Hashing the
/// 256 B-aligned block index preserves intra-row locality while spreading
/// blocks over all banks, matching the bank-utilization of full-size
/// tables.
pub(crate) fn spread_addr(addr: u64) -> u64 {
    let block = addr / 256;
    let offset = addr % 256;
    let mut h = block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 31;
    (h % (1 << 34)) / 256 * 256 + offset
}
