//! Edge host model: capacities, power curve, and per-interval utilisation.

use serde::{Deserialize, Serialize};

/// Identifier of a host in the federation (index into the host table).
pub type HostId = usize;

/// Static description of one edge node.
///
/// The defaults mirror the testbed of §IV-C: Raspberry Pi 4B boards with
/// 4 GB or 8 GB RAM, 1 Gbps links, and the published Pi 4B power envelope
/// (~2.7 W idle, ~6.4 W under full CPU load).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostSpec {
    /// Human-readable label, e.g. `"rpi8gb-03"`.
    pub name: String,
    /// CPU capacity in MIPS-equivalent units per second. A Pi 4B's four
    /// Cortex-A72 cores at 1.5 GHz are modelled as 4000 units.
    pub cpu_capacity: f64,
    /// Physical memory in MB (4096 or 8192 on the testbed).
    pub ram_mb: f64,
    /// Disk bandwidth in MB/s (SD card, ~40 MB/s).
    pub disk_bw: f64,
    /// Network bandwidth in MB/s (1 Gbps ≈ 125 MB/s).
    pub net_bw: f64,
    /// Idle power draw in watts.
    pub power_idle_w: f64,
    /// Power draw at 100% CPU in watts.
    pub power_peak_w: f64,
}

impl HostSpec {
    /// A 4 GB Raspberry Pi 4B node.
    pub fn rpi4gb(index: usize) -> Self {
        Self {
            name: format!("rpi4gb-{index:02}"),
            cpu_capacity: 4000.0,
            ram_mb: 4096.0,
            disk_bw: 40.0,
            net_bw: 125.0,
            power_idle_w: 2.7,
            power_peak_w: 6.4,
        }
    }

    /// An 8 GB Raspberry Pi 4B node.
    pub fn rpi8gb(index: usize) -> Self {
        Self {
            name: format!("rpi8gb-{index:02}"),
            cpu_capacity: 4000.0,
            ram_mb: 8192.0,
            disk_bw: 40.0,
            net_bw: 125.0,
            power_idle_w: 2.8,
            power_peak_w: 7.0,
        }
    }

    /// A server-class edge node (rack-mount Xeon-D class): ~4× a Pi's
    /// compute with 32 GB RAM, NVMe storage and a 10 Gbps uplink, but a
    /// server power envelope. Note the GAT graph features clamp RAM at
    /// 8 GB and CPU at 8000 units ([`crate::state`]), so server nodes
    /// saturate those feature channels — heterogeneity shows up in the
    /// simulator's execution and energy, not in wider encoder inputs.
    pub fn server(index: usize) -> Self {
        Self {
            name: format!("server-{index:02}"),
            cpu_capacity: 16000.0,
            ram_mb: 32768.0,
            disk_bw: 400.0,
            net_bw: 1250.0,
            power_idle_w: 45.0,
            power_peak_w: 150.0,
        }
    }

    /// An accelerator edge node (Jetson-class SoM): ~2× a Pi's effective
    /// compute at near-Pi power, 8 GB RAM, eMMC storage, 1 Gbps link.
    pub fn accelerator(index: usize) -> Self {
        Self {
            name: format!("accel-{index:02}"),
            cpu_capacity: 8000.0,
            ram_mb: 8192.0,
            disk_bw: 120.0,
            net_bw: 125.0,
            power_idle_w: 5.0,
            power_peak_w: 20.0,
        }
    }

    /// The 16-node testbed of §IV-C: eight 4 GB and eight 8 GB boards.
    pub fn testbed16() -> Vec<HostSpec> {
        let mut specs = Vec::with_capacity(16);
        for i in 0..8 {
            specs.push(HostSpec::rpi8gb(i));
        }
        for i in 0..8 {
            specs.push(HostSpec::rpi4gb(i));
        }
        specs
    }

    /// Instantaneous power draw in watts at the given CPU utilisation
    /// (clamped to `[0, 1]`); linear interpolation between idle and peak,
    /// the standard model for constant-frequency SBCs.
    pub fn power_at(&self, cpu_util: f64) -> f64 {
        let u = cpu_util.clamp(0.0, 1.0);
        self.power_idle_w + (self.power_peak_w - self.power_idle_w) * u
    }
}

/// Dynamic per-interval state of a host: the resource-utilisation metrics
/// the paper's broker samples (§III-A — CPU, RAM, disk/network bandwidth,
/// swap, buffers, I/O waits) plus failure status.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HostState {
    /// CPU utilisation in `[0, 1]` (can exceed 1 transiently under fault
    /// injection before being clamped by the simulator).
    pub cpu: f64,
    /// RAM utilisation in `[0, 1]`.
    pub ram: f64,
    /// Disk-bandwidth utilisation in `[0, 1]`.
    pub disk: f64,
    /// Network-bandwidth utilisation in `[0, 1]`.
    pub net: f64,
    /// Swap-space consumption in `[0, 1]` — grows once RAM saturates.
    pub swap: f64,
    /// Fraction of the interval spent in disk/network I/O wait.
    pub io_wait: f64,
    /// Energy consumed this interval, in watt-hours.
    pub energy_wh: f64,
    /// Number of tasks resident on this host this interval.
    pub active_tasks: usize,
    /// Whether the host was unresponsive (failed) this interval.
    pub failed: bool,
}

impl HostState {
    /// Composite load signal in `[0, 1]` used by heuristic baselines.
    pub fn load_score(&self) -> f64 {
        0.4 * self.cpu + 0.3 * self.ram + 0.15 * self.disk + 0.15 * self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_has_sixteen_heterogeneous_nodes() {
        let specs = HostSpec::testbed16();
        assert_eq!(specs.len(), 16);
        let large = specs.iter().filter(|s| s.ram_mb > 5000.0).count();
        assert_eq!(large, 8);
    }

    #[test]
    fn power_curve_is_linear_and_clamped() {
        let s = HostSpec::rpi4gb(0);
        assert_eq!(s.power_at(0.0), s.power_idle_w);
        assert_eq!(s.power_at(1.0), s.power_peak_w);
        assert_eq!(s.power_at(2.0), s.power_peak_w);
        assert_eq!(s.power_at(-1.0), s.power_idle_w);
        let mid = s.power_at(0.5);
        assert!((mid - (s.power_idle_w + s.power_peak_w) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn load_score_bounded() {
        let st = HostState {
            cpu: 1.0,
            ram: 1.0,
            disk: 1.0,
            net: 1.0,
            ..Default::default()
        };
        assert!((st.load_score() - 1.0).abs() < 1e-12);
        assert_eq!(HostState::default().load_score(), 0.0);
    }
}
