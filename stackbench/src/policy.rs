//! The `policy_update` workload: the gateway's decision point under OTA
//! churn. One service-sized engine over the V2X shared policy set decides
//! a request stream in a closed loop (one caller, next request after the
//! previous answer); every [`UPDATE_EVERY`] decisions one pre-signed bundle
//! is offered through `load_bundle` in strict mode, gated by the Layer-1
//! analyzer. Accepted bundles alternate between the car baseline and the
//! car baseline plus the platoon policy; one offer in eight is tampered and
//! must be rejected without touching the cache generation.
//!
//! The stream cycles a seeded permutation of every entry × asset × action
//! × mode × state context the policies name, plus entries no rule names
//! (the default-deny path) and state-conditioned rules (which bypass the
//! decision cache). Every decision is checked against an uncached oracle
//! precomputed per policy content.

use crate::clock::{Stopwatch, Timing};
use crate::drive::ratio;
use crate::ledger::{self, Span};
use crate::report::{self, Outcome};
use crate::stats;
use polsec_analyze::layer1::strict_validator;
use polsec_analyze::AnalysisOptions;
use polsec_car::v2x::{v2x_platoon_policy, v2x_shared_policy_set, OEM_KEY};
use polsec_car::{car_policy, CarMode};
use polsec_core::engine::LoadMode;
use polsec_core::{
    AccessRequest, Action, Effect, EntityId, EvalContext, PolicyBundle, PolicyEngine, PolicySet,
    SignedBundle,
};
use polsec_sim::DetRng;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Decisions between two bundle offers.
pub const UPDATE_EVERY: u64 = 4096;
/// Every this-many-th offer is tampered.
pub const TAMPER_EVERY: u64 = 8;
/// Decisions after an accepted update that count as cold.
pub const COLD_DECISIONS: u64 = 64;
/// Update cycles per throughput sample: short samples, so some of them
/// fall where no neighbour slows the host.
pub const CYCLES_PER_SAMPLE: u64 = 4;
/// Throughput samples per interleaved clock probe.
pub const SAMPLES_PER_PROBE: usize = 2;
/// Throughput samples per interleaved set-up measurement.
pub const SAMPLES_PER_SETUP: usize = 8;
/// Decisions per sampling unit of the traced loop: one unit-boundary
/// clock read per block keeps unit timing off the per-decision path.
pub const BLOCK: u64 = 64;
/// Blocks timed by the traced pass: one in this many.
pub const TRACE_EVERY: u64 = 8;
/// Update cycles in one traced pass.
pub const TRACED_CYCLES: u64 = 128;

/// Entries that no rule names: their requests take the default-deny path.
const UNKNOWN_ENTRIES: [&str; 3] = ["unknown", "obd-dongle", "media-browser"];

/// The bench's inputs for one seed.
pub struct Setup {
    pub engine: PolicyEngine,
    requests: Vec<AccessRequest>,
    contexts: Vec<EvalContext>,
    /// `(request, context)` index pairs, in the seeded stream order.
    stream: Vec<(u32, u32)>,
    /// Oracle effects per content (0 = initial, 1 = car, 2 = car+platoon),
    /// per stream position.
    oracle: [Vec<Effect>; 3],
    /// Accepted contents 1 and 2, and their tampered copies.
    bundles: [SignedBundle; 2],
    tampered: [SignedBundle; 2],
}

fn exact_names(set: &PolicySet, subject: bool) -> BTreeSet<String> {
    set.rules()
        .filter_map(|(_, rule)| {
            let m = if subject {
                rule.subject()
            } else {
                rule.object()
            };
            m.exact_key().map(|(_, name)| name)
        })
        .collect()
}

impl Setup {
    pub fn new(seed: u64) -> Self {
        let initial = v2x_shared_policy_set();
        let car: PolicySet = [car_policy()].into_iter().collect();
        let platoon: PolicySet = [car_policy(), v2x_platoon_policy()].into_iter().collect();

        let named = [&initial, &platoon];
        let mut entries: BTreeSet<String> =
            named.iter().flat_map(|s| exact_names(s, true)).collect();
        entries.extend(UNKNOWN_ENTRIES.iter().map(|e| e.to_string()));
        let assets: BTreeSet<String> = named.iter().flat_map(|s| exact_names(s, false)).collect();
        let mut requests = Vec::new();
        for entry in &entries {
            for asset in &assets {
                for action in Action::ALL {
                    requests.push(AccessRequest::new(
                        EntityId::new("entry", entry),
                        EntityId::new("asset", asset),
                        action,
                    ));
                }
            }
        }
        let mut contexts = Vec::new();
        for mode in CarMode::ALL {
            for (moving, crash, stolen) in [("true", "false", "false"), ("false", "true", "true")] {
                contexts.push(
                    EvalContext::new()
                        .with_mode(mode.name())
                        .with_state("vehicle.moving", moving)
                        .with_state("crash", crash)
                        .with_state("stolen", stolen),
                );
            }
        }
        let mut stream: Vec<(u32, u32)> = (0..requests.len() as u32)
            .flat_map(|r| (0..contexts.len() as u32).map(move |c| (r, c)))
            .collect();
        DetRng::seed_from(seed).shuffle(&mut stream);

        let oracle_for = |set: &PolicySet| {
            let oracle = PolicyEngine::compact(set.clone()).with_caching(false);
            stream
                .iter()
                .map(|&(r, c)| {
                    oracle
                        .decide(&requests[r as usize], &contexts[c as usize])
                        .effect()
                })
                .collect::<Vec<_>>()
        };
        let oracle = [oracle_for(&initial), oracle_for(&car), oracle_for(&platoon)];
        let sign = |version, rationale: &str, set: &PolicySet| {
            PolicyBundle::new(version, rationale, set.policies().to_vec()).sign(OEM_KEY)
        };
        let bundles = [
            sign(1, "car baseline", &car),
            sign(2, "car baseline + platoon following", &platoon),
        ];
        let tampered = [bundles[0].tampered(), bundles[1].tampered()];
        Setup {
            engine: PolicyEngine::new(initial),
            requests,
            contexts,
            stream,
            oracle,
            bundles,
            tampered,
        }
    }

    /// Distinct `(request, context)` pairs in the stream.
    pub fn stream_len(&self) -> usize {
        self.stream.len()
    }
}

/// What a run of the loop did.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub decisions: u64,
    pub mismatches: u64,
    pub offers: u64,
    pub tampered_offers: u64,
    pub tampered_accepted: u64,
    pub authentic_rejected: u64,
    /// Rejected offers that moved the cache generation anyway.
    pub generation_moved: u64,
    /// Per offer, µs.
    pub update_us: Vec<f64>,
    /// Decisions per CPU second per [`CYCLES_PER_SAMPLE`] cycles, CPU
    /// seconds per [`Setup::new`], and clock probes, interleaved with the
    /// loop.
    pub timing: Timing,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.mismatches + self.tampered_accepted + self.authentic_rejected
    }
    pub fn attempted(&self) -> u64 {
        self.decisions + self.offers
    }
}

/// The strict-mode validator `load_bundle` runs over an incoming set.
type Validator = Box<dyn Fn(&PolicySet) -> Result<(), String>>;

/// The closed loop, with its position carried between calls.
pub struct Loop {
    pub setup: Setup,
    validator: Validator,
    content: usize,
    pos: usize,
    seq: u64,
    /// Decisions left that count as cold.
    cold_left: u64,
    pub tally: Tally,
}

impl Loop {
    pub fn new(setup: Setup) -> Self {
        Loop {
            setup,
            validator: Box::new(strict_validator(AnalysisOptions::default(), false)),
            content: 0,
            pos: 0,
            seq: 0,
            cold_left: 0,
            tally: Tally::default(),
        }
    }

    /// Decides [`UPDATE_EVERY`] requests, untraced.
    fn decide_block(&mut self) {
        let s = &self.setup;
        let oracle = &s.oracle[self.content];
        let mut mismatches = 0;
        for _ in 0..UPDATE_EVERY {
            let (r, c) = s.stream[self.pos];
            let effect = s
                .engine
                .decide(&s.requests[r as usize], &s.contexts[c as usize])
                .effect();
            mismatches += u64::from(effect != oracle[self.pos]);
            self.pos += 1;
            if self.pos == s.stream.len() {
                self.pos = 0;
            }
        }
        self.tally.mismatches += mismatches;
        self.tally.decisions += UPDATE_EVERY;
    }

    /// Decides [`UPDATE_EVERY`] requests in sampling units of [`BLOCK`]
    /// decisions, one unit in `every` timed: warm decisions under
    /// `core.decide`, cold ones (always timed) under `core.decide.cold`.
    fn decide_block_traced(&mut self, seed: u64, every: u64) {
        for i in 0..UPDATE_EVERY {
            if i % BLOCK == 0 {
                ledger::begin_unit(ledger::selected(seed, self.seq, every));
                self.seq += 1;
            }
            let s = &self.setup;
            let (r, c) = s.stream[self.pos];
            let (req, ctx) = (&s.requests[r as usize], &s.contexts[c as usize]);
            let effect = if self.cold_left > 0 {
                self.cold_left -= 1;
                ledger::span_fixed(Span::CoreDecideCold, || s.engine.decide(req, ctx).effect())
            } else {
                ledger::span(Span::CoreDecide, || s.engine.decide(req, ctx).effect())
            };
            self.tally.mismatches += u64::from(effect != s.oracle[self.content][self.pos]);
            self.pos += 1;
            if self.pos == s.stream.len() {
                self.pos = 0;
            }
        }
        ledger::end_units();
        self.tally.decisions += UPDATE_EVERY;
    }

    /// The next offer: which content it carries and whether it is tampered.
    fn next_offer(&self) -> (usize, bool) {
        let next = if self.content == 1 { 2 } else { 1 };
        (next, self.tally.offers % TAMPER_EVERY == TAMPER_EVERY - 1)
    }

    fn settle(&mut self, next: usize, tampered: bool, accepted: bool, generation_before: u32) {
        let t = &mut self.tally;
        t.offers += 1;
        if tampered {
            t.tampered_offers += 1;
            t.tampered_accepted += u64::from(accepted);
        } else {
            t.authentic_rejected += u64::from(!accepted);
        }
        if !accepted && self.setup.engine.cache_generation() != generation_before {
            t.generation_moved += 1;
        }
        if accepted {
            self.content = next;
            self.cold_left = COLD_DECISIONS;
        }
    }

    /// Offers the next bundle through `load_bundle` in strict mode.
    fn offer(&mut self) {
        let (next, tampered) = self.next_offer();
        let s = &mut self.setup;
        let bundle = if tampered {
            &s.tampered[next - 1]
        } else {
            &s.bundles[next - 1]
        };
        let generation = s.engine.cache_generation();
        let started = Instant::now();
        let accepted = s
            .engine
            .load_bundle(bundle, OEM_KEY, LoadMode::Strict(&*self.validator))
            .is_ok();
        self.tally
            .update_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        self.settle(next, tampered, accepted, generation);
    }

    /// `load_bundle`'s three steps as separate spans: verify, the strict
    /// validator, reload.
    fn offer_traced(&mut self) {
        let (next, tampered) = self.next_offer();
        let s = &mut self.setup;
        let bundle = if tampered {
            &s.tampered[next - 1]
        } else {
            &s.bundles[next - 1]
        };
        let generation = s.engine.cache_generation();
        let validator = &self.validator;
        let accepted = match ledger::span_fixed(Span::CoreBundleVerify, || bundle.verify(OEM_KEY)) {
            Ok(verified) => {
                let set: PolicySet = verified.policies.iter().cloned().collect();
                if ledger::span_fixed(Span::AnalyzeValidate, || validator(&set)).is_ok() {
                    ledger::span_fixed(Span::CoreReload, || s.engine.reload(set));
                    true
                } else {
                    false
                }
            }
            Err(_) => false,
        };
        self.settle(next, tampered, accepted, generation);
    }

    /// Runs update cycles until `deadline`, sampling throughput every
    /// [`CYCLES_PER_SAMPLE`] cycles, the clock probe every
    /// [`SAMPLES_PER_PROBE`] samples and one fresh [`Setup`] every
    /// [`SAMPLES_PER_SETUP`] samples, so the three sample the same stretch
    /// of host time.
    pub fn run_until(&mut self, seed: u64, deadline: Instant) {
        loop {
            let started = Stopwatch::start();
            self.pass(CYCLES_PER_SAMPLE);
            let units = CYCLES_PER_SAMPLE * UPDATE_EVERY;
            let timing = &mut self.tally.timing;
            timing.sample(units as f64, started.read());
            if timing.rates.len() % SAMPLES_PER_SETUP == 1 {
                let started = Stopwatch::start();
                std::hint::black_box(Setup::new(seed));
                timing.setups.push(started.read().1);
            }
            if timing.rates.len() % SAMPLES_PER_PROBE == 1 {
                timing.probe();
            }
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// One untraced pass of `cycles` update cycles; returns its wall time.
    pub fn pass(&mut self, cycles: u64) -> f64 {
        let started = Instant::now();
        for _ in 0..cycles {
            self.decide_block();
            self.offer();
        }
        started.elapsed().as_secs_f64()
    }

    /// One traced pass of `cycles` update cycles; returns its wall time.
    pub fn traced_pass(&mut self, cycles: u64, seed: u64, every: u64) -> f64 {
        let started = Instant::now();
        for _ in 0..cycles {
            self.decide_block_traced(seed, every);
            self.offer_traced();
        }
        started.elapsed().as_secs_f64()
    }
}

fn fold_tally(out: &mut Outcome, t: &Tally) {
    out.attempted += t.attempted();
    out.failed += t.failed();
    out.check(
        "policy.decisions_match_oracle",
        t.mismatches == 0,
        format!(
            "{} of {} decisions disagree with the uncached oracle",
            t.mismatches, t.decisions
        ),
    );
    out.check(
        "policy.tampered_rejected",
        t.tampered_offers > 0 && t.tampered_accepted == 0 && t.generation_moved == 0,
        format!(
            "{} tampered offers, {} accepted, {} rejected offers moved the cache generation",
            t.tampered_offers, t.tampered_accepted, t.generation_moved
        ),
    );
    out.check(
        "policy.authentic_applied",
        t.authentic_rejected == 0,
        format!("{} authentic bundles rejected", t.authentic_rejected),
    );
}

/// The untraced run: the closed loop for `budget`.
pub fn measure(seed: u64, budget: Duration, out: &mut Outcome) {
    let mut lp = Loop::new(Setup::new(seed));
    // one sample first: its peak is the loop's
    lp.run_until(seed, Instant::now());
    report::record_peak_rss(out);
    lp.run_until(seed, Instant::now() + budget);
    let t = &lp.tally;
    fold_tally(out, t);
    let sorted = stats::sorted(&t.update_us);
    let p50 = stats::percentile(&sorted, 50.0);
    t.timing.report(out);
    out.note("update_us_p50", p50, "us");
    if let Some(p) = stats::tail_percentile(sorted.len()) {
        out.note(
            &format!("update_us_p{p}"),
            stats::percentile(&sorted, p),
            "us",
        );
    }
    out.note("update_samples", sorted.len() as f64, "count");
    out.note("stream_pairs", lp.setup.stream_len() as f64, "count");
}

/// The traced run: count-only and sampled passes of the traced loop, each
/// pair beside an untraced pass of the same length for the end-to-end
/// reference.
pub fn trace(seed: u64, budget: Duration, out: &mut Outcome) {
    let mut lp = Loop::new(Setup::new(seed));
    let deadline = Instant::now() + budget.mul_f64(0.75);
    let mut snapshot = ledger::Snapshot::empty();
    let (mut root_s, mut traced_s, mut e2e_s, mut units) = (0.0, 0.0, 0.0, 0.0);
    while units == 0.0 || Instant::now() < deadline {
        ledger::reset();
        root_s += lp.traced_pass(TRACED_CYCLES, seed, 0);
        ledger::reset();
        if units == 0.0 {
            // one pass of per-call samples is plenty for the percentiles
            ledger::keep_samples(Span::CoreDecide);
            ledger::keep_samples(Span::CoreDecideCold);
        }
        traced_s += lp.traced_pass(TRACED_CYCLES, seed, TRACE_EVERY);
        snapshot.absorb(ledger::snapshot());
        e2e_s += lp.pass(TRACED_CYCLES);
        // a unit is a decision or an update
        units += (TRACED_CYCLES * (UPDATE_EVERY + 1)) as f64;
    }
    fold_tally(out, &lp.tally);
    report::ledger_metrics(
        out,
        &report::LedgerRun {
            spans: &SPANS,
            snapshot: &snapshot,
            units,
            root_s,
            traced_s,
            e2e_ns: e2e_s * 1e9 / units,
        },
    );
    let warm = stats::sorted(&snapshot.row(Span::CoreDecide).samples);
    let cold = &snapshot.row(Span::CoreDecideCold).samples;
    let tail = stats::tail_percentile(warm.len());
    out.check(
        "policy.decide_samples",
        tail.is_some() && !cold.is_empty(),
        format!(
            "{} warm and {} cold samples; the tail rule needs more than {}",
            warm.len(),
            cold.len(),
            stats::TAIL_MIN_BEYOND
        ),
    );
    if let Some(tail) = tail {
        out.metric("core.decide.ns_p50", stats::percentile(&warm, 50.0), "ns");
        out.metric("core.decide.ns_p99", stats::percentile(&warm, tail), "ns");
        out.note("core.decide.ns_p99_percentile", tail, "percentile");
        out.note("core.decide.samples", warm.len() as f64, "count");
    }
    if !cold.is_empty() {
        out.metric("core.decide.cold_ns", stats::median(cold), "ns");
    }
    let e = lp.setup.engine.stats();
    out.metric(
        "core.rules_examined",
        e.rules_examined as f64 / e.decisions.max(1) as f64,
        "rules/decision",
    );
    out.metric(
        "core.cache_hit_ratio",
        ratio(e.cache_hits, e.cache_hits + e.cache_misses),
        "ratio",
    );
}

const SPANS: [Span; 5] = [
    Span::CoreDecide,
    Span::CoreDecideCold,
    Span::CoreBundleVerify,
    Span::AnalyzeValidate,
    Span::CoreReload,
];
