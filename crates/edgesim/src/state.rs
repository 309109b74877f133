//! Neural-network-facing view of the system state.
//!
//! The CAROL network (Fig. 3) consumes three inputs: performance metrics
//! `M` (per-host resource utilisation `u_i`, QoS `q_i` and task pressure
//! `t_i`, stacked as a matrix), the scheduling decision `S`, and the
//! topology graph `G`. [`SystemState`] assembles those from a
//! [`Simulator`](crate::Simulator) snapshot in a *host-count-agnostic*
//! encoding: per-host rows fed to shared encoders, so the same network
//! weights serve any federation size — the property the paper gets from
//! its graph attention network.

use crate::host::HostId;
use crate::host::{HostSpec, HostState};
use crate::scheduler::SchedulingDecision;
use crate::sim::{BROKER_BASE_CPU, BROKER_MGMT_RAM_MB, BROKER_PER_WORKER_CPU, BROKER_SPAN};
use crate::task::{Task, TaskId, TaskStatus};
use crate::topology::{NodeRole, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Width of one host's metric row in `M` (see [`SystemState::metrics`]).
pub const METRIC_DIM: usize = 10;

/// Width of one host's aggregated scheduling row in `S`.
pub const SCHED_DIM: usize = 3;

/// Width of one node's GAT feature vector.
pub const GRAPH_DIM: usize = 6;

/// Weight of the broker-failure blast-radius term of candidate
/// projection: with byzantine attacks striking brokers uniformly, every
/// host's chance of being stalled next interval is proportional to
/// `1 / broker_count`, so candidates with fewer brokers carry higher
/// projected SLO risk.
pub const STALL_RISK: f64 = 0.08;

/// Seconds treated as the full-scale task deadline in `S`.
pub const MAX_DEADLINE_S: f64 = 600.0;

/// CPU work treated as full scale for one host's scheduled tasks in `S`.
pub const MAX_CPU_WORK: f64 = 2.0e6;

/// Energy weight α of the objective `O(M) = α·q_energy + β·q_slo`
/// (eq. 6–7; paper: 0.5). See [`qos_components`].
pub const QOS_ALPHA: f64 = 0.5;

/// SLO weight β of the objective (paper: 0.5; α + β = 1).
pub const QOS_BETA: f64 = 0.5;

/// A complete `(M, S, G)` snapshot for the surrogate models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemState {
    /// Per-host metric rows, `n_hosts × METRIC_DIM`, all in `[0, 1]`.
    pub metrics: Vec<[f64; METRIC_DIM]>,
    /// Per-host aggregated scheduling rows, `n_hosts × SCHED_DIM`.
    pub schedule: Vec<[f64; SCHED_DIM]>,
    /// Per-node GAT feature rows, `n_hosts × GRAPH_DIM`.
    pub graph_features: Vec<[f64; GRAPH_DIM]>,
    /// The topology this snapshot was taken under; its
    /// [`Topology::gat_row`]s are the GAT adjacency.
    pub topology: Topology,
    /// Per-host RAM capacities (MB), for role-change cost projection.
    pub ram_mb: Vec<f64>,
}

/// Reference scales used to normalise raw metrics into `[0, 1]`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Normalizer {
    /// Watt-hours per interval treated as "full scale" for one host.
    pub max_energy_wh: f64,
    /// Active tasks per host treated as full scale.
    pub max_tasks: f64,
}

impl Default for Normalizer {
    fn default() -> Self {
        Self {
            // A Pi 4B at peak for 5 minutes ≈ 0.58 Wh.
            max_energy_wh: 0.7,
            max_tasks: 8.0,
        }
    }
}

impl Normalizer {
    /// Reference scales for an `n_hosts`-host federation organised into
    /// `n_brokers` LEIs. All per-host scales are size-invariant (the
    /// encoding feeds shared per-host encoders), but the task-pressure
    /// full scale grows with the LEI span: pending backlog concentrates
    /// at brokers, so a broker managing a 16-worker LEI legitimately sees
    /// queues that would saturate the 4-worker default. For span ≤ 4
    /// (the 16-host testbed, 4 LEIs) this is exactly [`Normalizer::default`],
    /// so existing runs are bit-identical.
    pub fn for_federation(n_hosts: usize, n_brokers: usize) -> Self {
        let span = n_hosts.max(1).div_ceil(n_brokers.max(1));
        Self {
            max_tasks: (2.0 * span as f64).max(8.0),
            ..Self::default()
        }
    }

    /// [`Normalizer::for_federation`] extended with fleet awareness: the
    /// per-host energy full scale grows to cover the hottest host class in
    /// `specs` (a server at peak for one interval dwarfs the Pi-derived
    /// 0.7 Wh default, which would pin the energy feature at 1.0 all run).
    /// For all-Pi fleets the peak-derived scale stays below the default,
    /// so every historical scenario remains bit-identical.
    pub fn for_fleet(specs: &[crate::HostSpec], n_brokers: usize) -> Self {
        let base = Self::for_federation(specs.len(), n_brokers);
        let peak_w = specs.iter().map(|s| s.power_peak_w).fold(0.0, f64::max);
        let peak_interval_wh = peak_w * crate::INTERVAL_SECONDS / 3600.0;
        Self {
            max_energy_wh: base.max_energy_wh.max(peak_interval_wh),
            ..base
        }
    }
}

/// Σ task-pressure (metric column 7) over broker `b`'s LEI: the broker
/// first, then its workers ascending — the `lei()` order — so the f64
/// chain is fixed.
fn lei_sum(topo: &Topology, metrics: &[[f64; METRIC_DIM]], b: HostId) -> f64 {
    let mut pressure = 0.0f64;
    pressure += metrics[b][7];
    for &w in topo.workers_of(b) {
        pressure += metrics[w][7];
    }
    pressure
}

impl SystemState {
    /// Builds the snapshot from simulator components. Interval-rate
    /// callers pass [`crate::Simulator::tasks`], the unretired tasks:
    /// completed ones contribute nothing to any snapshot column, so the
    /// capture costs O(live), not O(horizon).
    pub fn capture(
        topology: &Topology,
        specs: &[HostSpec],
        states: &[HostState],
        tasks: &[Task],
        decision: &SchedulingDecision,
        norm: &Normalizer,
    ) -> Self {
        let n = specs.len();
        assert_eq!(states.len(), n, "one state per host required");
        assert_eq!(topology.len(), n, "topology size mismatch");

        let mut metrics = Vec::with_capacity(n);
        let mut schedule = vec![[0.0; SCHED_DIM]; n];
        let mut graph_features = Vec::with_capacity(n);

        // Aggregate the one-hot S matrix into per-host pressure (count,
        // CPU demand, mean deadline), keeping the encoding size fixed.
        let mut sched_count = vec![0.0f64; n];
        let mut sched_work = vec![0.0f64; n];
        let mut sched_deadline = vec![0.0f64; n];
        if !decision.is_empty() {
            // Resolve decision ids through a map built once (first match
            // wins, like the linear scan this replaces) instead of an
            // O(tasks) search per placed task.
            let mut by_id: BTreeMap<TaskId, &Task> = BTreeMap::new();
            for task in tasks {
                by_id.entry(task.id).or_insert(task);
            }
            for (task_id, host) in decision.iter() {
                if host >= n {
                    continue;
                }
                if let Some(task) = by_id.get(&task_id) {
                    sched_count[host] += 1.0;
                    sched_work[host] += task.spec.cpu_work;
                    sched_deadline[host] += task.spec.deadline_s;
                }
            }
        }

        // Per-host SLO pressure from currently resident tasks, plus the
        // pending backlog attributed to the admitting broker — deep queues
        // must be visible to the surrogates' task-pressure column.
        let mut resident_behind = vec![0.0f64; n];
        let mut resident_count = vec![0.0f64; n];
        let mut pressure_count = vec![0.0f64; n];
        for task in tasks {
            match task.status {
                TaskStatus::Running => {
                    if let Some(h) = task.host {
                        if h < n {
                            resident_count[h] += 1.0;
                            pressure_count[h] += 1.0;
                            if task.elapsed_s > task.spec.deadline_s {
                                resident_behind[h] += 1.0;
                            }
                        }
                    }
                }
                TaskStatus::Pending => {
                    let b = topology.admitting_broker(task.admitted_by);
                    pressure_count[b] += 1.0;
                    if task.elapsed_s > task.spec.deadline_s {
                        resident_behind[b] += 1.0;
                        resident_count[b] += 1.0;
                    }
                }
                TaskStatus::Completed => {}
            }
        }

        for h in 0..n {
            let st = &states[h];
            let is_broker = matches!(topology.role(h), NodeRole::Broker);
            let slo_pressure = if resident_count[h] > 0.0 {
                resident_behind[h] / resident_count[h]
            } else {
                0.0
            };
            metrics.push([
                st.cpu.clamp(0.0, 1.0),
                st.ram.clamp(0.0, 1.0),
                st.disk.clamp(0.0, 1.0),
                st.net.clamp(0.0, 1.0),
                st.swap.clamp(0.0, 1.0),
                st.io_wait.clamp(0.0, 1.0),
                (st.energy_wh / norm.max_energy_wh).clamp(0.0, 1.0),
                (pressure_count[h] / norm.max_tasks).clamp(0.0, 1.0),
                slo_pressure.clamp(0.0, 1.0),
                if st.failed { 1.0 } else { 0.0 },
            ]);

            if sched_count[h] > 0.0 {
                schedule[h] = [
                    (sched_count[h] / norm.max_tasks).clamp(0.0, 1.0),
                    (sched_work[h] / MAX_CPU_WORK).clamp(0.0, 1.0),
                    (sched_deadline[h] / sched_count[h] / MAX_DEADLINE_S).clamp(0.0, 1.0),
                ];
            }

            let spec = &specs[h];
            graph_features.push([
                st.cpu.clamp(0.0, 1.0),
                st.ram.clamp(0.0, 1.0),
                (spec.ram_mb / 8192.0).clamp(0.0, 1.0),
                (spec.cpu_capacity / 8000.0).clamp(0.0, 1.0),
                if is_broker { 1.0 } else { 0.0 },
                (topology.workers_of(h).len() as f64 / n as f64).clamp(0.0, 1.0),
            ]);
        }

        Self {
            metrics,
            schedule,
            graph_features,
            topology: topology.clone(),
            ram_mb: specs.iter().map(|s| s.ram_mb).collect(),
        }
    }

    /// Number of hosts in the snapshot.
    pub fn n_hosts(&self) -> usize {
        self.metrics.len()
    }

    /// Flattens `M` into a single row vector (`1 × n·METRIC_DIM`) — the
    /// tensor the GON generation loop perturbs.
    pub fn metrics_flat(&self) -> Vec<f64> {
        self.metrics.iter().flatten().copied().collect()
    }

    /// Replaces `M` from a flat row vector (inverse of
    /// [`SystemState::metrics_flat`]).
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != n_hosts · METRIC_DIM`.
    pub fn set_metrics_flat(&mut self, flat: &[f64]) {
        assert_eq!(
            flat.len(),
            self.n_hosts() * METRIC_DIM,
            "flat metric length mismatch"
        );
        for (h, chunk) in flat.chunks_exact(METRIC_DIM).enumerate() {
            self.metrics[h].copy_from_slice(chunk);
        }
    }

    /// Projects the snapshot onto a *candidate* topology (used by tabu
    /// search and the baseline surrogates to score repair candidates
    /// without executing them).
    ///
    /// Graph features are rebuilt, and the metric rows get
    /// the *deterministic* role-change costs applied: a newly promoted
    /// broker gains management CPU/RAM, a demoted one sheds it, and
    /// workers in LEIs beyond the management span pick up SLO pressure
    /// from dispatch contention, all priced with the simulator's own
    /// broker constants ([`crate::sim::BROKER_BASE_CPU`] and its
    /// siblings). This is the warm-start estimate of `M_t` under the
    /// candidate — eq. 1's ascent then refines it (§III-B: "we initialize
    /// M as M_{t-1} and then converge").
    ///
    /// Projecting many candidates from one snapshot? Build its
    /// [`SystemState::projection`] once instead.
    pub fn with_topology(&self, topology: &Topology) -> Self {
        self.projection().with_topology(topology)
    }

    /// The snapshot ready to be projected onto many candidate topologies:
    /// the terms of [`SystemState::with_topology`] that depend on the
    /// snapshot alone are computed here, once.
    pub fn projection(&self) -> Projection<'_> {
        let mut projection = Projection {
            base: self,
            base_pressure: Vec::new(),
        };
        let mut pressure = Vec::new();
        projection.pressure_into(&self.topology, &mut pressure);
        projection.base_pressure = pressure;
        projection
    }

    /// The per-host mean energy (normalised) and SLO-pressure columns of
    /// `M`, summed over hosts — the ingredients of the objective function
    /// `O(M) = α·q_energy + β·q_slo` (eq. 6–7). See [`qos_components`].
    pub fn qos_components(&self) -> (f64, f64) {
        qos_components(self.metrics.as_flattened())
    }
}

/// A snapshot prepared for projection onto candidate topologies (see
/// [`SystemState::projection`]).
///
/// Row `h` of a projection depends on the candidate only through `h`'s
/// role and worker count, its broker's worker count and LEI task
/// pressure, and the broker count (the `blast` term). So a caller that
/// knows which hosts a topology change touches projects just those rows
/// with [`Projection::rows_into`], given the candidate's per-LEI
/// pressure ([`Projection::pressure_into`], or one LEI at a time with
/// [`Projection::lei_pressure`]); [`Projection::with_topology`] is the
/// same call over every host.
#[derive(Debug, Clone)]
pub struct Projection<'a> {
    base: &'a SystemState,
    /// Per-LEI task pressure of the snapshot's own topology.
    base_pressure: Vec<f64>,
}

impl<'a> Projection<'a> {
    /// The snapshot being projected.
    pub fn base(&self) -> &'a SystemState {
        self.base
    }

    /// [`SystemState::with_topology`] of the prepared snapshot.
    pub fn with_topology(&self, topology: &Topology) -> SystemState {
        let base = self.base;
        let n = base.n_hosts();
        let mut pressure = Vec::new();
        self.pressure_into(topology, &mut pressure);
        let mut metrics = Vec::with_capacity(n);
        let mut graph_features = Vec::with_capacity(n);
        self.rows_into(topology, &pressure, 0..n, &mut metrics, &mut graph_features);
        SystemState {
            metrics,
            schedule: base.schedule.clone(),
            graph_features,
            topology: topology.clone(),
            ram_mb: base.ram_mb.clone(),
        }
    }

    /// The task pressure (metric column 7 of the snapshot) of broker
    /// `broker`'s LEI under `topology`, summed in [`Topology::lei`] order.
    pub fn lei_pressure(&self, topology: &Topology, broker: HostId) -> f64 {
        lei_sum(topology, &self.base.metrics, broker)
    }

    /// Every LEI's [`Projection::lei_pressure`] under `topology` into
    /// `out`, indexed by broker host (0 for workers).
    pub fn pressure_into(&self, topology: &Topology, out: &mut Vec<f64>) {
        out.clear();
        out.resize(topology.len(), 0.0);
        for &b in topology.brokers() {
            out[b] = self.lei_pressure(topology, b);
        }
    }

    /// Appends the projected metric row and graph-feature row of each
    /// host in `hosts` onto `topology` to `metrics` and `graph_features`.
    /// `pressure` holds `topology`'s LEI pressure at every broker
    /// ([`Projection::pressure_into`]); other entries are not read.
    ///
    /// Graph features get the candidate's broker flag and worker share,
    /// and the metric rows the *deterministic* role-change costs: a newly
    /// promoted broker gains management CPU/RAM, a demoted one sheds it,
    /// and workers in LEIs beyond the management span pick up SLO
    /// pressure from dispatch contention, all priced with the
    /// simulator's own broker constants ([`crate::sim::BROKER_BASE_CPU`]
    /// and its siblings).
    ///
    /// # Panics
    ///
    /// Panics if the host counts differ.
    pub fn rows_into(
        &self,
        topology: &Topology,
        pressure: &[f64],
        hosts: impl IntoIterator<Item = HostId>,
        metrics: &mut Vec<[f64; METRIC_DIM]>,
        graph_features: &mut Vec<[f64; GRAPH_DIM]>,
    ) {
        let base = self.base;
        let n = base.n_hosts();
        assert_eq!(topology.len(), n, "host count mismatch");
        let mgmt_cpu = |topo: &Topology, h: usize| -> f64 {
            if matches!(topo.role(h), NodeRole::Broker) {
                BROKER_BASE_CPU + BROKER_PER_WORKER_CPU * topo.workers_of(h).len() as f64
            } else {
                0.0
            }
        };
        let contention = |topo: &Topology, h: usize| -> f64 {
            if matches!(topo.role(h), NodeRole::Broker) {
                0.0
            } else {
                let siblings = topo.workers_of(topo.broker_of(h)).len().max(1);
                0.25 * (siblings as f64 / BROKER_SPAN as f64 - 1.0).max(0.0)
            }
        };
        // Expected queueing share: each LEI's task pressure is served by
        // its worker pool, so a worker's anticipated contention is the LEI
        // total divided by the pool size. Moving workers toward hot LEIs
        // lowers the per-worker share there — the rebalancing signal tabu
        // search optimises over.
        let queue_share = |pressure: &[f64], topo: &Topology, h: usize| -> f64 {
            if matches!(topo.role(h), NodeRole::Broker) {
                return 0.0;
            }
            let broker = topo.broker_of(h);
            let pool = topo.workers_of(broker).len().max(1);
            pressure[broker] / pool as f64
        };
        let blast = |topo: &Topology| STALL_RISK / topo.brokers().len().max(1) as f64;
        for h in hosts {
            let is_broker = matches!(topology.role(h), NodeRole::Broker);
            let mut features = base.graph_features[h];
            features[4] = if is_broker { 1.0 } else { 0.0 };
            features[5] = (topology.workers_of(h).len() as f64 / n as f64).clamp(0.0, 1.0);
            graph_features.push(features);

            let d_cpu = mgmt_cpu(topology, h) - mgmt_cpu(&base.topology, h);
            let d_ram = (is_broker as u8 as f64
                - matches!(base.topology.role(h), NodeRole::Broker) as u8 as f64)
                * BROKER_MGMT_RAM_MB
                / base.ram_mb.get(h).copied().unwrap_or(8192.0);
            let d_slo = contention(topology, h) - contention(&base.topology, h)
                + 0.45
                    * (queue_share(pressure, topology, h)
                        - queue_share(&self.base_pressure, &base.topology, h))
                + blast(topology)
                - blast(&base.topology);
            let mut row = base.metrics[h];
            row[0] = (row[0] + d_cpu).clamp(0.0, 1.0);
            row[1] = (row[1] + d_ram).clamp(0.0, 1.0);
            // Energy tracks CPU roughly linearly on constant-frequency
            // SBCs — plus the standby premium: brokers can never drop into
            // standby, so promoting a (likely idle) worker costs the
            // idle-vs-standby power gap and demoting one recovers it in
            // proportion to how idle the host is.
            let was_broker = matches!(base.topology.role(h), NodeRole::Broker);
            let standby_premium = 0.18;
            let d_standby = if !was_broker && is_broker {
                standby_premium * (1.0 - base.metrics[h][7].min(1.0))
            } else if was_broker && !is_broker {
                -standby_premium * (1.0 - base.metrics[h][7].min(1.0))
            } else {
                0.0
            };
            row[6] = (row[6] + 0.6 * d_cpu + d_standby).clamp(0.0, 1.0);
            row[8] = (row[8] + d_slo).clamp(0.0, 1.0);
            metrics.push(row);
        }
    }
}

/// [`SystemState::qos_components`] of a flat `M` (the
/// [`SystemState::metrics_flat`] layout, e.g. a generated `M*`): the
/// energy and SLO-pressure columns summed over hosts in host order.
/// Scoring a generated candidate reads its objective straight off the
/// flat vector, without building a state to hold it.
///
/// # Panics
///
/// Panics if `flat.len()` is not a multiple of [`METRIC_DIM`].
pub fn qos_components(flat: &[f64]) -> (f64, f64) {
    assert_eq!(flat.len() % METRIC_DIM, 0, "flat metric length mismatch");
    let rows = || flat.chunks_exact(METRIC_DIM);
    let energy: f64 = rows().map(|m| m[6]).sum();
    let slo: f64 = rows().map(|m| m[8]).sum();
    (energy, slo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostSpec;
    use crate::scheduler::SchedulingDecision;
    use crate::task::{Task, TaskSpec};
    use crate::topology::Topology;

    fn snapshot() -> SystemState {
        let topo = Topology::balanced(4, 2).unwrap();
        let specs: Vec<HostSpec> = (0..4).map(HostSpec::rpi4gb).collect();
        let mut states = vec![HostState::default(); 4];
        states[2].cpu = 0.5;
        states[2].energy_wh = 0.35;
        let spec = TaskSpec {
            app: "x".into(),
            cpu_work: 1.0e6,
            ram_mb: 512.0,
            disk_mb: 10.0,
            net_mb: 10.0,
            deadline_s: 300.0,
        };
        let mut task = Task::new(0, spec, 0, 0);
        task.status = TaskStatus::Running;
        task.host = Some(2);
        task.elapsed_s = 400.0; // already past deadline
        let mut decision = SchedulingDecision::new();
        decision.assign(0, 2);
        SystemState::capture(
            &topo,
            &specs,
            &states,
            &[task],
            &decision,
            &Normalizer::default(),
        )
    }

    #[test]
    fn shapes_are_consistent() {
        let s = snapshot();
        assert_eq!(s.n_hosts(), 4);
        assert_eq!(s.metrics.len(), 4);
        assert_eq!(s.schedule.len(), 4);
        assert_eq!(s.graph_features.len(), 4);
        assert_eq!(s.topology.len(), 4);
    }

    #[test]
    fn values_are_normalised() {
        let s = snapshot();
        for row in &s.metrics {
            for &v in row {
                assert!((0.0..=1.0).contains(&v), "metric {v} out of range");
            }
        }
        for row in &s.schedule {
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn slo_pressure_and_energy_feed_qos() {
        let s = snapshot();
        let (energy, slo) = s.qos_components();
        assert!(energy > 0.0, "host 2's energy must appear");
        assert!(slo > 0.0, "late task must create SLO pressure");
    }

    #[test]
    fn metrics_flat_round_trips() {
        let mut s = snapshot();
        let flat = s.metrics_flat();
        assert_eq!(flat.len(), 4 * METRIC_DIM);
        let mut modified = flat.clone();
        modified[0] = 0.987;
        s.set_metrics_flat(&modified);
        assert_eq!(s.metrics[0][0], 0.987);
        assert_eq!(s.metrics_flat(), modified);
    }

    #[test]
    #[should_panic(expected = "flat metric length mismatch")]
    fn set_metrics_flat_checks_len() {
        let mut s = snapshot();
        s.set_metrics_flat(&[0.0; 3]);
    }

    #[test]
    fn with_topology_applies_role_change_costs() {
        let s = snapshot();
        let mut topo = s.topology.clone();
        let w = topo.workers()[0];
        topo.promote(w).unwrap();
        let s2 = s.with_topology(&topo);
        assert_eq!(s2.graph_features[w][4], 1.0);
        assert_eq!(s2.topology, topo);
        // The promoted host gains management CPU and RAM.
        assert!(s2.metrics[w][0] > s.metrics[w][0], "mgmt CPU must appear");
        assert!(s2.metrics[w][1] > s.metrics[w][1], "mgmt RAM must appear");
        // Identity projection leaves metrics untouched.
        let same = s.with_topology(&s.topology);
        assert_eq!(same.metrics, s.metrics);
    }

    #[test]
    fn with_topology_penalises_over_span_leis() {
        // Merge everything under one broker: the 14 workers exceed the
        // span of 5, so their SLO-pressure column must rise.
        let topo = Topology::balanced(16, 4).unwrap();
        let specs: Vec<HostSpec> = (0..16).map(HostSpec::rpi4gb).collect();
        let states = vec![HostState::default(); 16];
        let s = SystemState::capture(
            &topo,
            &specs,
            &states,
            &[],
            &SchedulingDecision::new(),
            &Normalizer::default(),
        );
        let mut merged = topo.clone();
        for b in [1usize, 2, 3] {
            for w in merged.workers_of(b).to_vec() {
                merged.reassign(w, 0).unwrap();
            }
            merged.demote(b, 0).unwrap();
        }
        let s2 = s.with_topology(&merged);
        let (_, slo_before) = s.qos_components();
        let (_, slo_after) = s2.qos_components();
        assert!(
            slo_after > slo_before,
            "single-broker federation must show contention: {slo_before} → {slo_after}"
        );
    }

    #[test]
    fn fleet_normalizer_is_bit_identical_for_pi_fleets() {
        use crate::sim::FleetMix;
        for (n, b) in [(8usize, 2usize), (16, 4), (64, 8), (128, 16)] {
            let fed = Normalizer::for_federation(n, b);
            let fleet = Normalizer::for_fleet(&FleetMix::Pi.specs(n), b);
            assert_eq!(fleet.max_energy_wh.to_bits(), fed.max_energy_wh.to_bits());
            assert_eq!(fleet.max_tasks.to_bits(), fed.max_tasks.to_bits());
        }
    }

    #[test]
    fn fleet_normalizer_widens_energy_scale_for_server_classes() {
        use crate::sim::FleetMix;
        let hetero = Normalizer::for_fleet(&FleetMix::Hetero.specs(16), 4);
        // A 150 W server over a 300 s interval is 12.5 Wh at peak.
        assert!(hetero.max_energy_wh >= 12.5, "{}", hetero.max_energy_wh);
        // Only the energy scale moves; the rest stays size/fleet-invariant.
        let fed = Normalizer::for_federation(16, 4);
        assert_eq!(hetero.max_tasks, fed.max_tasks);
    }

    #[test]
    fn federation_normalizer_matches_default_at_testbed_span() {
        // Bit-identical contract for all historical configurations (span ≤ 4).
        for (n, b) in [(16, 4), (8, 2), (4, 2)] {
            let norm = Normalizer::for_federation(n, b);
            let d = Normalizer::default();
            assert_eq!(norm.max_tasks, d.max_tasks, "({n},{b})");
            assert_eq!(norm.max_energy_wh, d.max_energy_wh);
        }
    }

    #[test]
    fn federation_normalizer_widens_task_scale_with_lei_span() {
        let n64 = Normalizer::for_federation(64, 8); // span 8
        assert_eq!(n64.max_tasks, 16.0);
        let n128 = Normalizer::for_federation(128, 8); // span 16
        assert_eq!(n128.max_tasks, 32.0);
        // Per-host scales stay size-invariant.
        assert_eq!(n128.max_energy_wh, Normalizer::default().max_energy_wh);
    }

    #[test]
    fn capture_handles_128_host_snapshots() {
        let n = 128;
        let topo = Topology::balanced(n, 16).unwrap();
        let specs: Vec<HostSpec> = (0..n).map(HostSpec::rpi4gb).collect();
        let states = vec![HostState::default(); n];
        let s = SystemState::capture(
            &topo,
            &specs,
            &states,
            &[],
            &SchedulingDecision::new(),
            &Normalizer::for_federation(n, 16),
        );
        assert_eq!(s.n_hosts(), n);
        assert_eq!(s.topology.len(), n);
        let (qe, qs) = s.qos_components();
        assert!(qe.is_finite() && qs.is_finite());
        // Projection onto a mutated topology must also scale.
        let mut cand = topo.clone();
        let w = cand.workers()[0];
        cand.promote(w).unwrap();
        let s2 = s.with_topology(&cand);
        assert_eq!(s2.n_hosts(), n);
    }

    #[test]
    fn broker_flag_set_in_graph_features() {
        let s = snapshot();
        assert_eq!(s.graph_features[0][4], 1.0);
        assert_eq!(s.graph_features[1][4], 1.0);
        assert_eq!(s.graph_features[2][4], 0.0);
    }
}
