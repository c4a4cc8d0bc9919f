//! Deterministic, seeded network perturbation ("chaos") policies.
//!
//! The simulator is otherwise a perfect world; this module lets an
//! experiment ask the robustness question the paper never measured: how
//! well does a replay hold up when the replayed network diverges from
//! the recorded one? A [`ChaosPolicy`] describes, per link, three kinds
//! of divergence:
//!
//! * **i.i.d. wire loss** — each completed transmission is lost on the
//!   wire with probability [`ChaosPolicy::drop_prob`], drawn from a
//!   dedicated per-link RNG stream (forked off the policy seed and the
//!   link id, so perturbing one link — or the workload — never shifts
//!   another link's draws);
//! * **scheduled link failures** — explicit or periodic down windows
//!   during which the in-service packet and the whole scheduler queue
//!   are dropped and arrivals are refused;
//! * **adversarial jamming** — windows (periodic, or RNG-scheduled with
//!   exponential gaps, per "On Packet Scheduling with Adversarial
//!   Jamming and Speedup") during which the link transmits nothing and
//!   the in-service packet is lost, but the queue survives.
//!
//! The idiom follows `rift_rust`'s `ChaosSocket`: the perturbation
//! layer *wraps* the existing link state machine rather than forking
//! it. Every window is compiled into explicit events at install time
//! ([`Network::install_chaos`](crate::Network::install_chaos)) in a
//! dedicated event class that pops before any same-instant data-plane
//! work, so runs are bit-identical for a given seed — and with no
//! policy installed the link code takes exactly the paths it does
//! today, keeping chaos-free artifacts byte-identical to the committed
//! baselines.

use crate::packet::LinkId;
use ups_sim::{DetRng, Dur, Time};

/// How a jamming-window schedule is generated (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JamSpec {
    /// A `burst`-long jam every `period`, the first starting at `start`.
    Periodic {
        start: Time,
        period: Dur,
        burst: Dur,
    },
    /// Adversarial RNG-scheduled jams: gaps between window starts are
    /// exponential with mean `mean_gap`, each window lasting `burst`.
    Random { mean_gap: Dur, burst: Dur },
}

/// A per-link perturbation policy (see the module docs). `seed` is the
/// chaos layer's own RNG root — deliberately separate from the workload
/// seed, so sweeping a drop rate never changes flow arrival times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPolicy {
    /// Chaos RNG root; per-link streams are forked from `(seed, link)`.
    pub seed: u64,
    /// i.i.d. probability that a completed transmission is lost on the
    /// wire. Must be in `[0, 1]`.
    pub drop_prob: f64,
    /// Explicit `(down_at, up_at)` failure windows.
    pub failures: Vec<(Time, Time)>,
    /// Periodic failures: every `.0`, the link goes down for `.1`
    /// (expanded against the install horizon; first window at `.0`).
    pub fail_periodic: Option<(Dur, Dur)>,
    /// Jamming-window generator.
    pub jam: Option<JamSpec>,
}

impl ChaosPolicy {
    /// A policy rooted at `seed` that perturbs nothing yet.
    pub fn new(seed: u64) -> ChaosPolicy {
        ChaosPolicy {
            seed,
            ..ChaosPolicy::default()
        }
    }

    /// Set the i.i.d. wire-loss probability.
    pub fn drop_prob(mut self, p: f64) -> ChaosPolicy {
        assert!((0.0..=1.0).contains(&p), "drop_prob out of [0,1]: {p}");
        self.drop_prob = p;
        self
    }

    /// Add an explicit failure window: down at `from`, back up at `to`.
    pub fn fail(mut self, from: Time, to: Time) -> ChaosPolicy {
        assert!(from < to, "failure window must have positive length");
        self.failures.push((from, to));
        self
    }

    /// Fail periodically: every `period`, down for `down`.
    pub fn fail_periodic(mut self, period: Dur, down: Dur) -> ChaosPolicy {
        assert!(down < period, "down time must be shorter than the period");
        self.fail_periodic = Some((period, down));
        self
    }

    /// Install a jamming-window generator.
    pub fn jam(mut self, spec: JamSpec) -> ChaosPolicy {
        self.jam = Some(spec);
        self
    }
}

/// A chaos state transition, delivered through the event wheel in the
/// dedicated chaos event class (popped before any same-instant
/// data-plane event, so an instant's failures settle before its
/// arrivals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPhase {
    /// The link fails: kill the in-service packet, drain the queue,
    /// refuse arrivals.
    Down,
    /// The link recovers.
    Up,
    /// A jamming window opens: kill the in-service packet, keep the
    /// queue, transmit nothing.
    JamStart,
    /// The jamming window closes.
    JamEnd,
}

/// Aggregate chaos counters over a whole network (see
/// [`Network::chaos_totals`](crate::Network::chaos_totals)).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTotals {
    /// Packets lost to the chaos layer (wire loss + failure kills/drains
    /// + arrivals refused while down).
    pub drops: u64,
    /// Failure windows entered, summed over links.
    pub downs: u64,
    /// Jamming windows entered, summed over links.
    pub jams: u64,
    /// Total down/jam wall time, summed over links.
    pub outage: Dur,
}

/// Per-link chaos runtime state, installed on [`crate::Link`] by
/// [`Network::install_chaos`](crate::Network::install_chaos).
#[derive(Debug)]
pub(crate) struct LinkChaos {
    /// Dedicated wire-loss stream (jam scheduling used a sibling fork,
    /// fully consumed at install — runtime draws never perturb it).
    pub(crate) rng: DetRng,
    pub(crate) drop_prob: f64,
    pub(crate) down: bool,
    pub(crate) jammed: bool,
    /// Start of the current outage (down and/or jammed) stretch.
    pub(crate) outage_since: Time,
}

impl LinkChaos {
    /// True while the transmitter must stay silent.
    #[inline]
    pub(crate) fn blocked(&self) -> bool {
        self.down || self.jammed
    }
}

/// Compile a policy for one link: the runtime state plus every phase
/// transition up to `horizon`, in schedule order. Deterministic in
/// `(policy, link, horizon)` alone.
pub(crate) fn compile(
    policy: &ChaosPolicy,
    link: LinkId,
    horizon: Time,
) -> (LinkChaos, Vec<(Time, ChaosPhase)>) {
    assert!(
        (0.0..=1.0).contains(&policy.drop_prob),
        "drop_prob out of [0,1]: {}",
        policy.drop_prob
    );
    let mut master = DetRng::new(policy.seed);
    let mut link_rng = master.fork(link.0 as u64);
    let mut jam_rng = link_rng.fork(1);
    let drop_rng = link_rng.fork(2);

    let mut events: Vec<(Time, ChaosPhase)> = Vec::new();
    for &(from, to) in &policy.failures {
        assert!(from < to, "failure window must have positive length");
        if from < horizon {
            events.push((from, ChaosPhase::Down));
            events.push((to, ChaosPhase::Up));
        }
    }
    if let Some((period, down)) = policy.fail_periodic {
        assert!(down < period, "down time must be shorter than the period");
        let mut t = Time::ZERO + period;
        while t < horizon {
            events.push((t, ChaosPhase::Down));
            events.push((t + down, ChaosPhase::Up));
            t += period;
        }
    }
    match policy.jam {
        Some(JamSpec::Periodic {
            start,
            period,
            burst,
        }) => {
            assert!(burst < period, "jam burst must be shorter than the period");
            let mut t = start;
            while t < horizon {
                events.push((t, ChaosPhase::JamStart));
                events.push((t + burst, ChaosPhase::JamEnd));
                t += period;
            }
        }
        Some(JamSpec::Random { mean_gap, burst }) => {
            assert!(mean_gap > Dur::ZERO, "mean jam gap must be positive");
            let rate = 1.0 / mean_gap.as_secs_f64();
            let mut t = Time::ZERO;
            loop {
                t += Dur::from_secs_f64(jam_rng.gen_exp_secs(rate));
                if t >= horizon {
                    break;
                }
                events.push((t, ChaosPhase::JamStart));
                events.push((t + burst, ChaosPhase::JamEnd));
            }
        }
        None => {}
    }
    // Schedule order; ties resolve transition-kind-stably so overlapping
    // windows compile deterministically.
    events.sort_by_key(|&(t, p)| (t, p as u8));

    (
        LinkChaos {
            rng: drop_rng,
            drop_prob: policy.drop_prob,
            down: false,
            jammed: false,
            outage_since: Time::ZERO,
        },
        events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_is_deterministic_and_window_paired() {
        let p = ChaosPolicy::new(7)
            .drop_prob(0.01)
            .fail(Time::from_micros(10), Time::from_micros(20))
            .jam(JamSpec::Random {
                mean_gap: Dur::from_micros(50),
                burst: Dur::from_micros(5),
            });
        let horizon = Time::from_millis(2);
        let (_, a) = compile(&p, LinkId(3), horizon);
        let (_, b) = compile(&p, LinkId(3), horizon);
        assert_eq!(a, b, "same policy + link + horizon must compile equal");
        assert!(!a.is_empty());
        let starts = a.iter().filter(|e| e.1 == ChaosPhase::JamStart).count();
        let ends = a.iter().filter(|e| e.1 == ChaosPhase::JamEnd).count();
        assert_eq!(starts, ends, "every jam window must close");
        // A different link draws a different jam schedule.
        let (_, c) = compile(&p, LinkId(4), horizon);
        assert_ne!(a, c, "per-link streams must be independent");
    }

    #[test]
    fn periodic_windows_cover_the_horizon() {
        let p = ChaosPolicy::new(1).fail_periodic(Dur::from_micros(100), Dur::from_micros(10));
        let (_, ev) = compile(&p, LinkId(0), Time::from_micros(1000));
        let downs = ev.iter().filter(|e| e.1 == ChaosPhase::Down).count();
        assert_eq!(downs, 9, "one failure per period, first at t=period");
        assert!(ev.windows(2).all(|w| w[0].0 <= w[1].0), "schedule order");
    }

    #[test]
    fn inactive_policy_compiles_to_nothing() {
        let p = ChaosPolicy::new(5);
        let (state, ev) = compile(&p, LinkId(0), Time::from_millis(1));
        assert!(ev.is_empty());
        assert_eq!(state.drop_prob, 0.0);
        assert!(!state.blocked());
    }
}
