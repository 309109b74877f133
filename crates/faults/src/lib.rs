//! Fault-injection module, after Ye et al. \[41\] as used in §IV-F.
//!
//! At test time the paper injects byzantine faults into broker (and
//! worker) nodes with a Poisson process of rate λ_f = 0.5 per interval,
//! sampling uniformly from four attack types that all manifest as resource
//! over-utilisation:
//!
//! * **CPU overload** — a CPU-hogging loop;
//! * **RAM contention** — continuous memory read/write pressure;
//! * **Disk attack** — IOZone consuming most disk bandwidth;
//! * **DDoS attack** — invalid HTTP connection floods contending the NIC.
//!
//! The injector translates each attack into a [`FaultLoad`] pushed into the
//! simulator, which saturates the victim and renders it unresponsive —
//! exactly the failure pathway the paper restricts itself to ("faults that
//! manifest in the form of resource over-utilization", §III-A).
//!
//! # Fault-intensity unit
//!
//! The injection `rate` is **faults per scheduling interval,
//! federation-wide**: each interval the injector draws
//! `Poisson(rate)` fault arrivals and assigns each one to a victim drawn
//! uniformly from the candidate set of the [`TargetPolicy`]. The rate is
//! *not* scaled by host count — λ_f = 0.5 means one expected fault every
//! two intervals whether the federation has 8 hosts or 128 — so the
//! per-host marginal intensity is `rate / |candidates|`. This is pinned by
//! the `intensity_unit_is_federation_wide_not_per_host` test below.
//!
//! # Correlated fault models
//!
//! Real rack-scale deployments do not fail i.i.d.: a PSU brownout takes
//! its whole rack's hazard up, and a switch partition takes the rack out
//! at once. [`FaultModel`] layers two correlated processes on top of the
//! base Poisson stream (which keeps its exact RNG draw sequence, so
//! [`FaultModel::Iid`] is bit-identical to the historical injector):
//!
//! * [`FaultModel::Cascade`] — blast-radius groups: hosts are grouped
//!   into racks of `rack_size` contiguous ids; every strike adds `boost`
//!   to its rack's hazard, which decays by `decay` each interval and
//!   drives extra `Poisson(hazard)` collateral strikes within the rack.
//! * [`FaultModel::Partition`] — network partitions: `Poisson(rate)`
//!   partition events per interval, each isolating one whole rack for
//!   `duration` intervals by pinning every member's NIC (a DDoS-class
//!   load), so the rack fails as a unit and its tasks must be rerouted.
//!
//! Both models are pure functions of the injector seed (deterministic,
//! `tests/determinism.rs` gates the scenario fan-out) and serde
//! round-trippable as part of a scenario spec.

#![warn(missing_docs)]

use edgesim::{FaultLoad, HostId, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The four attack types of §IV-F.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// CPU hogging application.
    CpuOverload,
    /// Continuous memory read/write contention.
    RamContention,
    /// IOZone-style disk-bandwidth exhaustion.
    DiskAttack,
    /// Network-bandwidth contention from connection floods.
    DdosAttack,
}

impl FaultKind {
    /// All attack types, in a fixed order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::CpuOverload,
        FaultKind::RamContention,
        FaultKind::DiskAttack,
        FaultKind::DdosAttack,
    ];

    /// The nominal resource pressure this attack exerts for one interval.
    /// Each attack pins its target resource hard enough to saturate a host
    /// with typical organic load. See [`FaultKind::load_scaled`] for the
    /// randomised intensity the injector actually applies.
    pub fn load(self) -> FaultLoad {
        match self {
            FaultKind::CpuOverload => FaultLoad {
                cpu: 1.0,
                ram: 0.10,
                ..Default::default()
            },
            FaultKind::RamContention => FaultLoad {
                ram: 1.0,
                cpu: 0.25,
                ..Default::default()
            },
            FaultKind::DiskAttack => FaultLoad {
                disk: 1.0,
                cpu: 0.15,
                ..Default::default()
            },
            FaultKind::DdosAttack => FaultLoad {
                net: 1.0,
                cpu: 0.20,
                ..Default::default()
            },
        }
    }
}

impl FaultKind {
    /// The attack intensity actually injected: nominal load scaled by a
    /// uniform factor in `[0.65, 1.15]`. Weak attacks only fell brokers
    /// that already carry pressure (queue backlog, management span) — the §I
    /// coupling between bottlenecks and fault frequency.
    pub fn load_scaled(self, rng: &mut StdRng) -> FaultLoad {
        let k: f64 = rng.gen_range(0.65..1.15);
        let base = self.load();
        FaultLoad {
            cpu: base.cpu * k,
            ram: base.ram * k,
            disk: base.disk * k,
            net: base.net * k,
        }
    }
}

/// Which process generated a fault occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum FaultCause {
    /// The base i.i.d. Poisson stream (the paper's §IV-F process).
    #[default]
    Base,
    /// Collateral strike driven by a rack's cascade hazard.
    Cascade,
    /// Rack-wide network partition.
    Partition,
}

/// One injected fault occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Interval the fault strikes.
    pub interval: usize,
    /// Victim host.
    pub host: HostId,
    /// Attack type.
    pub kind: FaultKind,
    /// Which process produced it.
    pub cause: FaultCause,
}

/// Strategy for choosing fault victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetPolicy {
    /// Target brokers only — the paper's broker-resilience experiments
    /// ("these attacks were performed to cause the byzantine failure of
    /// broker nodes", §IV-F).
    BrokersOnly,
    /// Target any host uniformly (workers included).
    AnyHost,
}

/// How fault occurrences correlate across hosts and intervals. Layered on
/// top of the base federation-wide Poisson stream (see the module docs for
/// the intensity unit); [`FaultModel::Iid`] adds nothing and is
/// bit-identical to the historical injector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum FaultModel {
    /// Independent faults only — the paper's §IV-F process.
    #[default]
    Iid,
    /// Blast-radius cascades: hosts `[r·rack_size, (r+1)·rack_size)` form
    /// rack `r`; every strike adds `boost` to its rack's hazard, which
    /// decays multiplicatively by `decay` per interval and drives extra
    /// `Poisson(hazard)` collateral strikes confined to that rack.
    /// Subcritical whenever `boost · decay / (1 - decay) < 1`.
    Cascade {
        /// Hosts per blast-radius group (contiguous ids).
        rack_size: usize,
        /// Hazard added to a rack per strike it receives.
        boost: f64,
        /// Per-interval multiplicative hazard decay in `[0, 1)`.
        decay: f64,
    },
    /// Rack-scale network partitions: `Poisson(rate)` partition events per
    /// interval, each isolating one uniformly drawn rack for `duration`
    /// intervals by pinning every member's NIC at the nominal DDoS load —
    /// the whole rack fails as a unit until the partition heals.
    Partition {
        /// Hosts per rack (contiguous ids).
        rack_size: usize,
        /// Expected partition events per interval, federation-wide.
        rate: f64,
        /// Intervals a partition lasts.
        duration: usize,
    },
}

impl FaultModel {
    /// Short label for tables and JSON artifacts, e.g. `"cascade"`.
    pub fn label(&self) -> &'static str {
        match self {
            FaultModel::Iid => "iid",
            FaultModel::Cascade { .. } => "cascade",
            FaultModel::Partition { .. } => "partition",
        }
    }

    fn validate(&self) {
        match *self {
            FaultModel::Iid => {}
            FaultModel::Cascade {
                rack_size,
                boost,
                decay,
            } => {
                assert!(rack_size >= 1, "cascade rack_size must be ≥ 1");
                assert!(boost >= 0.0, "cascade boost must be non-negative");
                assert!(
                    (0.0..1.0).contains(&decay),
                    "cascade decay must be in [0, 1)"
                );
            }
            FaultModel::Partition {
                rack_size,
                rate,
                duration,
            } => {
                assert!(rack_size >= 1, "partition rack_size must be ≥ 1");
                assert!(rate >= 0.0, "partition rate must be non-negative");
                assert!(duration >= 1, "partition duration must be ≥ 1");
            }
        }
    }
}

/// Poisson fault injector (λ_f = 0.5 by default, §IV-F), optionally
/// layered with a correlated [`FaultModel`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rate: f64,
    target: TargetPolicy,
    model: FaultModel,
    rng: StdRng,
    /// Per-rack cascade hazard (extra Poisson intensity next interval).
    hazard: Vec<f64>,
    /// First interval at which each rack is no longer partitioned.
    partitioned_until: Vec<usize>,
}

impl FaultInjector {
    /// Creates an injector with rate `rate` faults **per interval,
    /// federation-wide** (see the module docs: the per-host marginal is
    /// `rate / |candidates|`; the rate does not scale with host count)
    /// and independent ([`FaultModel::Iid`]) occurrences.
    pub fn new(rate: f64, target: TargetPolicy, seed: u64) -> Self {
        Self::with_model(rate, target, FaultModel::Iid, seed)
    }

    /// Creates an injector whose base Poisson stream is layered with the
    /// given correlated [`FaultModel`]. The base stream consumes the
    /// exact RNG draw sequence of [`FaultInjector::new`], so its marginal
    /// statistics are model-independent.
    pub fn with_model(rate: f64, target: TargetPolicy, model: FaultModel, seed: u64) -> Self {
        assert!(rate >= 0.0, "fault rate must be non-negative");
        model.validate();
        Self {
            rate,
            target,
            model,
            rng: StdRng::seed_from_u64(seed),
            hazard: Vec::new(),
            partitioned_until: Vec::new(),
        }
    }

    /// The paper's configuration: λ_f = 0.5, brokers targeted.
    pub fn paper_defaults(seed: u64) -> Self {
        Self::new(0.5, TargetPolicy::BrokersOnly, seed)
    }

    /// Injection rate per interval, federation-wide.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The correlated model in use.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// Draws this interval's faults and pushes their loads into `sim`.
    /// Returns the events injected (empty most intervals at λ_f = 0.5).
    ///
    /// The base i.i.d. stream is drawn first with the historical RNG
    /// sequence; correlated models then append their collateral strikes.
    /// Everything is a pure function of the seed and the call sequence.
    pub fn inject(&mut self, interval: usize, sim: &mut Simulator) -> Vec<FaultEvent> {
        let n_faults = workloads::poisson(self.rate, &mut self.rng);
        let mut events = Vec::with_capacity(n_faults);
        for _ in 0..n_faults {
            let candidates: Vec<HostId> = match self.target {
                TargetPolicy::BrokersOnly => sim.topology().brokers().to_vec(),
                TargetPolicy::AnyHost => (0..sim.specs().len()).collect(),
            };
            if candidates.is_empty() {
                break;
            }
            let host = candidates[self.rng.gen_range(0..candidates.len())];
            let kind = FaultKind::ALL[self.rng.gen_range(0..FaultKind::ALL.len())];
            sim.inject_fault(host, kind.load_scaled(&mut self.rng));
            events.push(FaultEvent {
                interval,
                host,
                kind,
                cause: FaultCause::Base,
            });
        }
        match self.model {
            FaultModel::Iid => {}
            FaultModel::Cascade {
                rack_size,
                boost,
                decay,
            } => {
                let n_racks = sim.specs().len().div_ceil(rack_size);
                self.hazard.resize(n_racks, 0.0);
                // Decay yesterday's hazard, then draw today's collateral
                // from the decayed level. Strikes below raise the hazard
                // only for *future* intervals, so one interval's events
                // cannot amplify themselves.
                for h in self.hazard.iter_mut() {
                    *h *= decay;
                    if *h < 1e-12 {
                        *h = 0.0;
                    }
                }
                for rack in 0..n_racks {
                    let hazard = self.hazard[rack];
                    if hazard <= 0.0 {
                        continue;
                    }
                    let extra = workloads::poisson(hazard, &mut self.rng);
                    for _ in 0..extra {
                        let lo = rack * rack_size;
                        let hi = ((rack + 1) * rack_size).min(sim.specs().len());
                        let host = self.rng.gen_range(lo..hi);
                        let kind = FaultKind::ALL[self.rng.gen_range(0..FaultKind::ALL.len())];
                        sim.inject_fault(host, kind.load_scaled(&mut self.rng));
                        events.push(FaultEvent {
                            interval,
                            host,
                            kind,
                            cause: FaultCause::Cascade,
                        });
                    }
                }
                for event in &events {
                    self.hazard[event.host / rack_size] += boost;
                }
            }
            FaultModel::Partition {
                rack_size,
                rate,
                duration,
            } => {
                let n_hosts = sim.specs().len();
                let n_racks = n_hosts.div_ceil(rack_size);
                self.partitioned_until.resize(n_racks, 0);
                let n_events = workloads::poisson(rate, &mut self.rng);
                for _ in 0..n_events {
                    let rack = self.rng.gen_range(0..n_racks);
                    self.partitioned_until[rack] =
                        self.partitioned_until[rack].max(interval + duration);
                }
                for rack in 0..n_racks {
                    if self.partitioned_until[rack] <= interval {
                        continue;
                    }
                    for host in rack * rack_size..((rack + 1) * rack_size).min(n_hosts) {
                        sim.inject_fault(host, FaultKind::DdosAttack.load());
                        events.push(FaultEvent {
                            interval,
                            host,
                            kind: FaultKind::DdosAttack,
                            cause: FaultCause::Partition,
                        });
                    }
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgesim::scheduler::LeastLoadScheduler;
    use edgesim::SimConfig;

    /// Injects and steps an idle simulator for `intervals` intervals,
    /// returning every injected event in order.
    fn drive(inj: &mut FaultInjector, sim: &mut Simulator, intervals: usize) -> Vec<FaultEvent> {
        let mut sched = LeastLoadScheduler::new();
        let mut events = Vec::new();
        for t in 0..intervals {
            events.extend(inj.inject(t, sim));
            sim.step(Vec::new(), &mut sched);
        }
        events
    }

    #[test]
    fn every_attack_saturates_its_resource() {
        for kind in FaultKind::ALL {
            let l = kind.load();
            let peak = l.cpu.max(l.ram).max(l.disk).max(l.net);
            assert!(peak >= 1.0, "{kind:?} must saturate something");
        }
    }

    #[test]
    fn injection_rate_matches_poisson_mean() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 0));
        let mut inj = FaultInjector::new(0.5, TargetPolicy::BrokersOnly, 1);
        let intervals = 4000;
        let mean = drive(&mut inj, &mut sim, intervals).len() as f64 / intervals as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn brokers_only_policy_hits_brokers() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 3));
        let mut inj = FaultInjector::new(3.0, TargetPolicy::BrokersOnly, 5);
        let events = drive(&mut inj, &mut sim, 50);
        assert!(!events.is_empty());
        for e in events {
            // Victims were brokers at injection time; initial topology has
            // brokers 0 and 1 and never changes here.
            assert!(e.host < 2, "non-broker {} attacked", e.host);
        }
    }

    #[test]
    fn injected_faults_cause_broker_failures() {
        let mut sim = Simulator::new(SimConfig::small(8, 2, 4));
        let mut inj = FaultInjector::new(5.0, TargetPolicy::BrokersOnly, 6);
        let mut sched = LeastLoadScheduler::new();
        let mut saw_broker_failure = false;
        for t in 0..20 {
            inj.inject(t, &mut sim);
            let r = sim.step(Vec::new(), &mut sched);
            if !r.failed_brokers.is_empty() {
                saw_broker_failure = true;
            }
        }
        assert!(saw_broker_failure, "high fault rate must fell a broker");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let run = |seed| {
            let mut sim = Simulator::new(SimConfig::small(8, 2, 9));
            let mut inj = FaultInjector::new(1.0, TargetPolicy::AnyHost, seed);
            drive(&mut inj, &mut sim, 30)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut sim = Simulator::new(SimConfig::small(4, 1, 0));
        let mut inj = FaultInjector::new(0.0, TargetPolicy::AnyHost, 0);
        for t in 0..50 {
            assert!(inj.inject(t, &mut sim).is_empty());
        }
    }

    /// Pins the intensity unit: `rate` is faults per interval
    /// **federation-wide**, not per host — quadrupling the host count must
    /// not change the observed mean.
    #[test]
    fn intensity_unit_is_federation_wide_not_per_host() {
        let mean_at = |n_hosts: usize| {
            let mut sim = Simulator::new(SimConfig::small(n_hosts, 2, 7));
            let mut inj = FaultInjector::new(0.8, TargetPolicy::AnyHost, 11);
            let intervals = 3000;
            drive(&mut inj, &mut sim, intervals).len() as f64 / intervals as f64
        };
        let small = mean_at(8);
        let large = mean_at(32);
        assert!((small - 0.8).abs() < 0.06, "8 hosts: mean={small}");
        assert!((large - 0.8).abs() < 0.06, "32 hosts: mean={large}");
    }

    #[test]
    fn iid_model_is_bit_identical_to_plain_injector() {
        let run = |mut inj: FaultInjector| {
            let mut sim = Simulator::new(SimConfig::small(8, 2, 3));
            drive(&mut inj, &mut sim, 40)
        };
        let plain = run(FaultInjector::new(1.0, TargetPolicy::AnyHost, 21));
        let modeled = run(FaultInjector::with_model(
            1.0,
            TargetPolicy::AnyHost,
            FaultModel::Iid,
            21,
        ));
        assert_eq!(plain, modeled);
    }

    #[test]
    fn cascade_base_marginal_matches_configured_intensity() {
        let mut sim = Simulator::new(SimConfig::small(16, 4, 2));
        let model = FaultModel::Cascade {
            rack_size: 4,
            boost: 1.0,
            decay: 0.5,
        };
        let mut inj = FaultInjector::with_model(0.6, TargetPolicy::AnyHost, model, 13);
        let intervals = 3000;
        let events = drive(&mut inj, &mut sim, intervals);
        let base = events
            .iter()
            .filter(|e| e.cause == FaultCause::Base)
            .count() as f64
            / intervals as f64;
        let collateral = events
            .iter()
            .filter(|e| e.cause == FaultCause::Cascade)
            .count();
        assert!((base - 0.6).abs() < 0.06, "base marginal={base}");
        assert!(collateral > 0, "boost must produce collateral strikes");
    }

    #[test]
    fn cascade_collateral_stays_inside_the_struck_rack() {
        let rack_size = 4;
        let mut sim = Simulator::new(SimConfig::small(16, 4, 5));
        let model = FaultModel::Cascade {
            rack_size,
            boost: 3.0,
            decay: 0.6,
        };
        let mut inj = FaultInjector::with_model(1.0, TargetPolicy::AnyHost, model, 17);
        // Every collateral strike must land in a rack struck at some
        // earlier (hazard-raising) interval.
        let mut struck_racks: Vec<usize> = Vec::new();
        for e in drive(&mut inj, &mut sim, 200) {
            if e.cause == FaultCause::Cascade {
                assert!(
                    struck_racks.contains(&(e.host / rack_size)),
                    "collateral in never-struck rack {}",
                    e.host / rack_size
                );
            }
            struck_racks.push(e.host / rack_size);
        }
    }

    #[test]
    fn partition_takes_out_whole_racks_for_the_duration() {
        let rack_size = 4;
        let duration = 2;
        let mut sim = Simulator::new(SimConfig::small(16, 4, 6));
        let model = FaultModel::Partition {
            rack_size,
            rate: 0.5,
            duration,
        };
        let mut inj = FaultInjector::with_model(0.0, TargetPolicy::AnyHost, model, 19);
        let mut sched = LeastLoadScheduler::new();
        let mut partition_events = Vec::new();
        for t in 0..100 {
            let events = inj.inject(t, &mut sim);
            // A partitioned rack emits one event per member host.
            let mut by_rack: std::collections::BTreeMap<usize, usize> = Default::default();
            for e in &events {
                assert_eq!(e.cause, FaultCause::Partition);
                assert_eq!(e.kind, FaultKind::DdosAttack);
                *by_rack.entry(e.host / rack_size).or_default() += 1;
            }
            for (&rack, &count) in &by_rack {
                assert_eq!(count, rack_size, "rack {rack} partially partitioned");
            }
            partition_events.extend(events);
            sim.step(Vec::new(), &mut sched);
        }
        assert!(!partition_events.is_empty(), "rate 0.5 must partition");
    }

    #[test]
    fn correlated_models_are_deterministic_per_seed() {
        for model in [
            FaultModel::Cascade {
                rack_size: 4,
                boost: 2.0,
                decay: 0.5,
            },
            FaultModel::Partition {
                rack_size: 4,
                rate: 0.4,
                duration: 2,
            },
        ] {
            let run = |seed| {
                let mut sim = Simulator::new(SimConfig::small(16, 4, 9));
                let mut inj =
                    FaultInjector::with_model(0.8, TargetPolicy::AnyHost, model.clone(), seed);
                drive(&mut inj, &mut sim, 60)
            };
            assert_eq!(run(42), run(42), "{model:?}");
            assert_ne!(run(42), run(43), "{model:?}");
        }
    }

    #[test]
    fn fault_models_round_trip_through_serde() {
        for model in [
            FaultModel::Iid,
            FaultModel::Cascade {
                rack_size: 8,
                boost: 1.5,
                decay: 0.4,
            },
            FaultModel::Partition {
                rack_size: 8,
                rate: 0.25,
                duration: 3,
            },
        ] {
            let json = serde_json::to_string(&model).unwrap();
            let back: FaultModel = serde_json::from_str(&json).unwrap();
            assert_eq!(model, back);
        }
        let event = FaultEvent {
            interval: 7,
            host: 3,
            kind: FaultKind::DdosAttack,
            cause: FaultCause::Partition,
        };
        let json = serde_json::to_string(&event).unwrap();
        let back: FaultEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(event, back);
    }
}
