//! The measure and trace loops the simulation workloads (`fleet`,
//! `v2x_platoon`) share. A workload supplies its configuration type as a
//! [`Scenario`]: the public entry point, the counter that counts its units,
//! and its per-call checks. The loops time the calls, fold the checks, and
//! report the end-to-end metrics or the ledger.

use crate::clock::{Stopwatch, Timing};
use crate::ledger::{self, Span};
use crate::report::{self, Outcome};
use crate::stats::median;
use polsec_sim::MetricSet;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Calls per measured run, at least, whatever the time budget.
const MIN_CALLS: usize = 3;
/// Repetitions per rung configuration in the ablation.
const ABLATION_REPS: usize = 3;

/// A workload's configuration, runnable through its public entry point.
pub trait Scenario {
    /// Prefix of the workload's check and ablation names.
    const NAME: &'static str;
    /// The counter of workload units: bus frames, judged messages.
    const UNIT_COUNTER: &'static str;
    /// Counters the traced replica must reproduce exactly.
    const WORK_COUNTERS: &'static [&'static str];
    /// Whether the replica reproduces the whole deterministic section, not
    /// only [`Self::WORK_COUNTERS`].
    const WHOLE_SECTION: bool;
    /// A second counter whose rate is printed as a note.
    const NOTE_RATE: Option<(&'static str, &'static str)> = None;

    /// Runs the scenario; returns its deterministic section.
    fn run(&self) -> MetricSet;

    /// One call's checks, `(name, ok, detail)`; also adds the call's
    /// attempted and failed operations to `out`.
    fn judge(&self, metrics: &MetricSet, out: &mut Outcome) -> Vec<(&'static str, bool, String)>;
}

/// One timed call of the public entry point.
pub struct Call {
    pub metrics: MetricSet,
    pub wall_s: f64,
    /// The calling thread's CPU time.
    pub cpu_s: f64,
    /// The deterministic section, rendered.
    pub json: String,
}

impl Call {
    pub fn units<S: Scenario>(&self) -> u64 {
        self.metrics.counter(S::UNIT_COUNTER)
    }
}

pub fn call<S: Scenario>(cfg: &S) -> Call {
    let started = Stopwatch::start();
    let mut metrics = cfg.run();
    let (wall_s, cpu_s) = started.read();
    let json = metrics.to_json();
    Call {
        metrics,
        wall_s,
        cpu_s,
        json,
    }
}

/// The checks of every call of a run, folded: per check, the failing calls
/// and the first failure's detail.
#[derive(Default)]
struct Verdicts {
    calls: u64,
    failing: BTreeMap<String, (u64, String)>,
}

impl Verdicts {
    /// Folds one call in: the workload's checks, and its deterministic
    /// section against the first call's.
    fn call<S: Scenario>(&mut self, cfg: &S, c: &Call, reference: &str, out: &mut Outcome) {
        self.calls += 1;
        let mut checks = cfg.judge(&c.metrics, out);
        checks.push((
            "deterministic",
            c.json == reference,
            "the deterministic section diverged from the first call's".into(),
        ));
        for (name, ok, detail) in checks {
            let entry = self
                .failing
                .entry(format!("{}.{name}", S::NAME))
                .or_insert((0, String::new()));
            if !ok {
                if entry.0 == 0 {
                    entry.1 = detail;
                }
                entry.0 += 1;
            }
        }
    }

    fn report(self, out: &mut Outcome) {
        let n = self.calls;
        for (name, (failed, detail)) in self.failing {
            out.check(
                &name,
                failed == 0,
                format!("{failed} of {n} calls failed; first: {detail}"),
            );
        }
    }
}

/// The untraced run: calls of `cfg` for `budget`, each followed by one call
/// of `setup` and one host probe, so the three sample the same stretch of
/// host time.
pub fn measure<S: Scenario>(cfg: &S, setup: &S, budget: Duration, out: &mut Outcome) {
    let mut verdicts = Verdicts::default();
    let first = call(cfg);
    verdicts.call(cfg, &first, &first.json, out);
    report::record_peak_rss(out);
    let deadline = Instant::now() + budget;
    let mut timing = Timing::default();
    while timing.rates.len() < MIN_CALLS || Instant::now() < deadline {
        let c = call(cfg);
        verdicts.call(cfg, &c, &first.json, out);
        timing.sample(c.units::<S>() as f64, (c.wall_s, c.cpu_s));
        timing.setups.push(call(setup).cpu_s);
        timing.probe();
    }
    verdicts.report(out);
    if let Some((counter, name)) = S::NOTE_RATE {
        // every call does the same work, so the counter keeps its ratio
        let per_unit = first.metrics.counter(counter) as f64 / first.units::<S>() as f64;
        out.note(name, timing.throughput() * per_unit, "1/s");
    }
    timing.report(out);
    out.note("calls", timing.rates.len() as f64, "count");
    out.note("deterministic_digest", digest(&first.json) as f64, "fnv32");
}

/// One pass of a traced replica.
pub struct Pass<X> {
    /// The deterministic section (`wall.` split off).
    pub metrics: MetricSet,
    pub wall_s: f64,
    /// What else the workload's ledger rows need.
    pub extra: X,
}

/// Names of `counters` that differ between the traced replica and the
/// public entry point for the same configuration.
pub fn counter_mismatches(
    counters: &[&str],
    traced: &MetricSet,
    reference: &MetricSet,
) -> Vec<String> {
    counters
        .iter()
        .filter(|k| traced.counter(k) != reference.counter(k))
        .map(|k| {
            format!(
                "{k}: traced {} vs entry point {}",
                traced.counter(k),
                reference.counter(k)
            )
        })
        .collect()
}

/// The traced run: count-only (`pass(0)`) and sampled (`pass(every)`)
/// passes of the replica beside untraced calls of `cfg`, for three quarters
/// of `budget`. Checks the replica against the entry point and reports the
/// ledger; returns the last sampled pass for the workload's ratio rows.
pub fn trace<S: Scenario, X>(
    cfg: &S,
    budget: Duration,
    out: &mut Outcome,
    every: u64,
    spans: &[Span],
    mut pass: impl FnMut(u64) -> Pass<X>,
) -> Pass<X> {
    let mut verdicts = Verdicts::default();
    let reference = call(cfg);
    verdicts.call(cfg, &reference, &reference.json, out);
    let deadline = Instant::now() + budget.mul_f64(0.75);
    let mut snapshot = ledger::Snapshot::empty();
    let (mut root_s, mut traced_s, mut e2e_s, mut units) = (0.0, 0.0, 0.0, 0.0);
    let mut mismatches = BTreeSet::new();
    let mut last = None;
    while last.is_none() || Instant::now() < deadline {
        ledger::reset();
        let mut count = pass(0);
        mismatches.extend(counter_mismatches(
            S::WORK_COUNTERS,
            &count.metrics,
            &reference.metrics,
        ));
        if S::WHOLE_SECTION && count.metrics.to_json() != reference.json {
            mismatches.insert("the deterministic section differs".to_string());
        }
        ledger::reset();
        let sampled = pass(every);
        snapshot.absorb(ledger::snapshot());
        let e2e = call(cfg);
        verdicts.call(cfg, &e2e, &reference.json, out);
        root_s += count.wall_s;
        traced_s += sampled.wall_s;
        e2e_s += e2e.wall_s;
        units += sampled.metrics.counter(S::UNIT_COUNTER) as f64;
        last = Some(sampled);
    }
    verdicts.report(out);
    out.check(
        &format!("{}.replica_matches", S::NAME),
        mismatches.is_empty(),
        Vec::from_iter(mismatches).join("; "),
    );
    report::ledger_metrics(
        out,
        &report::LedgerRun {
            spans,
            snapshot: &snapshot,
            units,
            root_s,
            traced_s,
            e2e_ns: e2e_s * 1e9 / units,
        },
    );
    last.expect("at least one traced pass ran")
}

/// Median ns per unit of `reps` calls.
fn ns_per_unit<S: Scenario>(cfg: &S, reps: usize) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let c = call(cfg);
            c.wall_s * 1e9 / c.units::<S>() as f64
        })
        .collect();
    median(&v)
}

/// The rung ablation: `ablate.<NAME>.<rung>` is ns/unit of `base` minus
/// ns/unit with that rung removed.
pub fn ablate<S: Scenario>(base: &S, rungs: Vec<(&'static str, S)>, out: &mut Outcome) {
    let base_ns = ns_per_unit(base, ABLATION_REPS);
    for (rung, cfg) in rungs {
        let delta = base_ns - ns_per_unit(&cfg, ABLATION_REPS);
        out.metric(&format!("ablate.{}.{rung}", S::NAME), delta, "ns/unit");
    }
}

/// FNV-1a over the rendered deterministic section, folded to 32 bits so
/// it prints exactly as a JSON number; equal across runs of one seed.
pub fn digest(json: &str) -> u32 {
    let h = json.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    });
    (h ^ (h >> 32)) as u32
}

pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
