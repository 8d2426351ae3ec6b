//! The per-layer cost ledger: spans the benchmark's own code puts around
//! public calls into each layer.
//!
//! * **Sampling.** The benchmark announces each sampling *unit* (a scheduler
//!   event, an epoch, a block of decisions) with [`begin_unit`]. A unit is
//!   timed when [`selected`] picks it — `sim::trace`'s rule,
//!   `splitmix64(seed ^ seq) % every == 0` — so the same seed always times
//!   the same units. Call counts are kept for every unit, timed or not.
//! * **Self time.** Within a timed unit every span is timed, and a span's
//!   raw self time is its duration minus the durations of the spans it
//!   directly contains, exactly.
//! * **Fixed spans.** Rare, heavy calls (vehicle construction, OTA applies,
//!   policy reloads) use [`span_fixed`]: they are timed on every call and
//!   are not scaled, because a 1-in-N sample would usually miss them.
//! * **Timer cost.** A clock read costs tens of ns — as much as an HPE
//!   lookup — so raw self times of small spans are mostly timer. The cost
//!   is measured where it is paid: every unit's wall time is recorded, so
//!   timed units minus untimed units, per span timed, is what one span
//!   costs in total; an empty probe span at the start of each timed unit
//!   measures the part that lands inside a span's own duration (`inner`);
//!   the rest lands in its parent (`outer`). [`snapshot`] subtracts both,
//!   so a row estimates the untraced cost of its layer.
//!
//! The ledger is thread-local: every workload runs on one thread.

use std::cell::RefCell;
use std::time::Instant;

/// Every span the benchmark records. Names are the ledger row names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    SimSched,
    CanTick,
    CarFwTick,
    CanBus,
    HpeEgress,
    HpeIngress,
    CarFwFrame,
    CarFwFrameEcu,
    CanGateway,
    CanEvents,
    HpeProbe,
    CoreRequest,
    CoreDecide,
    CanRx,
    SimMetrics,
    SimMerge,
    CarBuild,
    SimPlane,
    CarV2xEpoch,
    CarSlice,
    CarV2xAuth,
    CarAnomaly,
    CarRelay,
    CoreOtaApply,
    CoreEngineBuild,
    CoreDecideCold,
    CoreBundleVerify,
    AnalyzeValidate,
    CoreReload,
    /// The empty span that measures timer cost; not a ledger row.
    Probe,
}

impl Span {
    /// Every ledger row, in report order.
    pub const ALL: [Span; 29] = [
        Span::SimSched,
        Span::CanTick,
        Span::CarFwTick,
        Span::CanBus,
        Span::HpeEgress,
        Span::HpeIngress,
        Span::CarFwFrame,
        Span::CarFwFrameEcu,
        Span::CanGateway,
        Span::CanEvents,
        Span::HpeProbe,
        Span::CoreRequest,
        Span::CoreDecide,
        Span::CanRx,
        Span::SimMetrics,
        Span::SimMerge,
        Span::CarBuild,
        Span::SimPlane,
        Span::CarV2xEpoch,
        Span::CarSlice,
        Span::CarV2xAuth,
        Span::CarAnomaly,
        Span::CarRelay,
        Span::CoreOtaApply,
        Span::CoreEngineBuild,
        Span::CoreDecideCold,
        Span::CoreBundleVerify,
        Span::AnalyzeValidate,
        Span::CoreReload,
    ];

    /// The ledger row name.
    pub fn name(self) -> &'static str {
        match self {
            Span::SimSched => "sim.sched",
            Span::CanTick => "can.tick",
            Span::CarFwTick => "car.fw_tick",
            Span::CanBus => "can.bus",
            Span::HpeEgress => "hpe.egress",
            Span::HpeIngress => "hpe.ingress",
            Span::CarFwFrame => "car.fw_frame",
            Span::CarFwFrameEcu => "car.fw_frame.ecu",
            Span::CanGateway => "can.gateway",
            Span::CanEvents => "can.events",
            Span::HpeProbe => "hpe.probe",
            Span::CoreRequest => "core.request",
            Span::CoreDecide => "core.decide",
            Span::CanRx => "can.rx",
            Span::SimMetrics => "sim.metrics",
            Span::SimMerge => "sim.merge",
            Span::CarBuild => "car.build",
            Span::SimPlane => "sim.plane",
            Span::CarV2xEpoch => "car.v2x.epoch",
            Span::CarSlice => "car.slice",
            Span::CarV2xAuth => "car.v2x.auth",
            Span::CarAnomaly => "car.anomaly",
            Span::CarRelay => "car.relay",
            Span::CoreOtaApply => "core.ota_apply",
            Span::CoreEngineBuild => "core.engine_build",
            Span::CoreDecideCold => "core.decide.cold",
            Span::CoreBundleVerify => "core.bundle_verify",
            Span::AnalyzeValidate => "analyze.validate",
            Span::CoreReload => "core.reload",
            Span::Probe => "probe",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Rows plus the probe.
const SLOTS: usize = Span::ALL.len() + 1;

/// splitmix64's finaliser — the mix `sim::trace` samples with.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 1-in-`every` unit selector: `splitmix64(seed ^ seq) % every == 0`.
/// `every == 0` selects nothing (a count-only pass); `every == 1` selects
/// every unit.
pub fn selected(seed: u64, seq: u64, every: u64) -> bool {
    every != 0 && splitmix64(seed ^ seq).is_multiple_of(every)
}

/// Raw timing accumulated for one span in one regime (sampled or fixed).
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    /// Σ (duration − direct children's durations), uncompensated.
    raw_ns: u64,
    /// Timed calls.
    timed: u64,
    /// Timed direct children across those calls.
    children: u64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    span: Span,
    fixed: bool,
    start: Instant,
    child_ns: u64,
    children: u64,
}

/// Timer cost per timed span, in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimerCost {
    /// Cost that lands inside the span's own duration.
    pub inner: f64,
    /// Cost the span leaves in its parent's self time.
    pub outer: f64,
}

/// Wall time of units, split by whether they were timed.
#[derive(Debug, Clone, Copy, Default)]
struct UnitWalls {
    timed_ns: u64,
    timed: u64,
    /// Sampled spans timed inside timed units (probe included).
    timed_spans: u64,
    untimed_ns: u64,
    untimed: u64,
}

struct State {
    calls: Vec<u64>,
    sampled: Vec<Acc>,
    fixed: Vec<Acc>,
    samples: Vec<Option<Vec<u64>>>,
    stack: Vec<Frame>,
    timing: bool,
    units: u64,
    timed_units: u64,
    /// The open unit's start, and sampled spans timed in it so far.
    unit: Option<(Instant, u64)>,
    walls: UnitWalls,
    /// Σ durations and count of top-level spans closed in this unit.
    unit_top: (u64, u64),
}

impl State {
    fn new() -> Self {
        let mut samples = vec![None; SLOTS];
        samples[Span::Probe.index()] = Some(Vec::new());
        State {
            calls: vec![0; SLOTS],
            sampled: vec![Acc::default(); SLOTS],
            fixed: vec![Acc::default(); SLOTS],
            samples,
            stack: Vec::with_capacity(16),
            timing: false,
            units: 0,
            timed_units: 0,
            unit: None,
            walls: UnitWalls::default(),
            unit_top: (0, 0),
        }
    }

    #[inline]
    fn enter(&mut self, span: Span, fixed: bool) -> bool {
        self.calls[span.index()] += 1;
        if !(fixed || self.timing) {
            return false;
        }
        if !fixed {
            if let Some((_, spans)) = &mut self.unit {
                *spans += 1;
            }
        }
        self.stack.push(Frame {
            span,
            fixed,
            start: Instant::now(),
            child_ns: 0,
            children: 0,
        });
        true
    }

    #[inline]
    fn exit(&mut self) {
        let end = Instant::now();
        let frame = self.stack.pop().expect("exit matches an enter");
        let d = end.duration_since(frame.start).as_nanos() as u64;
        self.close(frame.span, frame.fixed, d, frame.child_ns, frame.children);
    }

    fn close(&mut self, span: Span, fixed: bool, d: u64, child_ns: u64, children: u64) {
        let acc = if fixed {
            &mut self.fixed[span.index()]
        } else {
            &mut self.sampled[span.index()]
        };
        acc.raw_ns += d.saturating_sub(child_ns);
        acc.timed += 1;
        acc.children += children;
        if let Some(samples) = &mut self.samples[span.index()] {
            samples.push(d.saturating_sub(child_ns));
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += d;
            parent.children += 1;
        } else {
            self.unit_top.0 += d;
            self.unit_top.1 += 1;
        }
    }

    fn close_unit(&mut self, now: Instant) {
        if let Some((start, spans)) = self.unit.take() {
            let d = now.duration_since(start).as_nanos() as u64;
            let w = &mut self.walls;
            if self.timing {
                w.timed_ns += d;
                w.timed += 1;
                w.timed_spans += spans;
            } else {
                w.untimed_ns += d;
                w.untimed += 1;
            }
        }
        self.timing = false;
        self.unit_top = (0, 0);
    }
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::new());
}

/// Runs `f` inside a sampled span: timed only within a timed unit.
#[inline]
pub fn span<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let timed = STATE.with(|s| s.borrow_mut().enter(span, false));
    let out = f();
    if timed {
        STATE.with(|s| s.borrow_mut().exit());
    }
    out
}

/// Runs `f` inside a fixed span: timed on every call, never scaled.
pub fn span_fixed<R>(span: Span, f: impl FnOnce() -> R) -> R {
    STATE.with(|s| s.borrow_mut().enter(span, true));
    let out = f();
    STATE.with(|s| s.borrow_mut().exit());
    out
}

/// Records one call of a span whose time the caller derives itself (for
/// example plane time = epoch wall − Σ step closures). `timed` carries
/// `(self ns, direct timed children)` when the call was measured.
pub fn record(span: Span, fixed: bool, timed: Option<(u64, u64)>) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.calls[span.index()] += 1;
        if let Some((ns, children)) = timed {
            s.close(span, fixed, ns, 0, children);
        }
    });
}

/// Closes the open unit and starts the next; `timed` comes from
/// [`selected`]. A timed unit starts with one empty probe span.
pub fn begin_unit(timed: bool) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        debug_assert!(s.stack.is_empty(), "units never nest inside spans");
        let now = Instant::now();
        s.close_unit(now);
        s.timing = timed;
        s.units += 1;
        s.timed_units += u64::from(timed);
        s.unit = Some((now, 0));
    });
    if timed {
        span(Span::Probe, || ());
    }
}

/// Σ durations and count of the top-level spans timed since the current
/// unit began — what a caller subtracts from a unit's wall time to get the
/// time spent outside its spans.
pub fn unit_top() -> (u64, u64) {
    STATE.with(|s| s.borrow().unit_top)
}

/// Closes the open unit: later sampled spans are counted, not timed.
pub fn end_units() {
    STATE.with(|s| s.borrow_mut().close_unit(Instant::now()));
}

/// Keeps the per-call self time of every timed call of `span`.
pub fn keep_samples(span: Span) {
    STATE.with(|s| s.borrow_mut().samples[span.index()] = Some(Vec::new()));
}

/// Clears everything recorded.
pub fn reset() {
    STATE.with(|s| *s.borrow_mut() = State::new());
}

/// One span's ledger row.
#[derive(Debug, Clone, Default)]
pub struct Row {
    /// Calls in every unit, timed or not.
    pub calls: u64,
    /// Estimated untraced self time over the whole pass, ns.
    pub self_ns: f64,
    /// Per-call self times net of inner timer cost, when kept.
    pub samples: Vec<f64>,
}

/// Everything a pass recorded.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub rows: Vec<Row>,
    pub units: u64,
    pub timed_units: u64,
    /// The timer cost subtracted (of the last pass absorbed).
    pub timer: TimerCost,
}

impl Snapshot {
    /// A ledger with no calls, to absorb passes into.
    pub fn empty() -> Self {
        Snapshot {
            rows: vec![Row::default(); SLOTS],
            units: 0,
            timed_units: 0,
            timer: TimerCost::default(),
        }
    }

    pub fn row(&self, span: Span) -> &Row {
        &self.rows[span.index()]
    }

    /// Σ self time over every ledger row, ns.
    pub fn total_ns(&self) -> f64 {
        Span::ALL.iter().map(|&s| self.row(s).self_ns).sum()
    }

    /// Adds another pass's ledger to this one.
    pub fn absorb(&mut self, other: Snapshot) {
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows) {
            mine.calls += theirs.calls;
            mine.self_ns += theirs.self_ns;
            mine.samples.extend(theirs.samples);
        }
        self.units += other.units;
        self.timed_units += other.timed_units;
        self.timer = other.timer;
    }
}

/// The timer cost measured in place: total per span from unit walls,
/// inner from the probes, outer the rest. Zero when the pass had no timed
/// or no untimed units to compare.
fn timer_cost(s: &State) -> TimerCost {
    let w = &s.walls;
    let probes = s.samples[Span::Probe.index()].as_deref().unwrap_or(&[]);
    if w.timed == 0 || w.untimed == 0 || w.timed_spans == 0 || probes.is_empty() {
        return TimerCost::default();
    }
    let timed = w.timed_ns as f64 / w.timed as f64;
    let untimed = w.untimed_ns as f64 / w.untimed as f64;
    let per_span = ((timed - untimed) / (w.timed_spans as f64 / w.timed as f64)).max(0.0);
    let probes: Vec<f64> = probes.iter().map(|&ns| ns as f64).collect();
    let inner = crate::stats::median(&probes).min(per_span);
    TimerCost {
        inner,
        outer: per_span - inner,
    }
}

/// Compensated self time of an accumulator.
fn compensated(acc: &Acc, cost: TimerCost) -> f64 {
    acc.raw_ns as f64 - acc.timed as f64 * cost.inner - acc.children as f64 * cost.outer
}

/// The ledger so far: sampled self times scaled by units ÷ timed units,
/// fixed self times as measured, both net of timer cost.
pub fn snapshot() -> Snapshot {
    STATE.with(|s| {
        let s = s.borrow();
        let cost = timer_cost(&s);
        let scale = if s.timed_units == 0 {
            0.0
        } else {
            s.units as f64 / s.timed_units as f64
        };
        let rows = (0..SLOTS)
            .map(|i| Row {
                calls: s.calls[i],
                self_ns: compensated(&s.sampled[i], cost) * scale + compensated(&s.fixed[i], cost),
                samples: s.samples[i]
                    .iter()
                    .flatten()
                    .map(|&ns| ns as f64 - cost.inner)
                    .collect(),
            })
            .collect();
        Snapshot {
            rows,
            units: s.units,
            timed_units: s.timed_units,
            timer: cost,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polsec_sim::{SimTime, Trace};
    use std::hint::black_box;

    fn raw(span: Span) -> Acc {
        STATE.with(|s| s.borrow().sampled[span.index()])
    }

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, i| black_box(a.wrapping_add(i)))
    }

    #[test]
    fn selector_matches_the_trace_sampler() {
        // Trace keeps record `seq` exactly when the selector picks it.
        for (every, seed) in [(4u64, 7u64), (8, 0xF1EE7), (16, u64::MAX)] {
            let mut trace = Trace::with_capacity(10_000);
            trace.set_sampling(every, seed);
            for seq in 0..2_000u64 {
                trace.record(SimTime::ZERO, "t", seq.to_string());
            }
            let kept: Vec<u64> = trace.iter().map(|r| r.detail.parse().unwrap()).collect();
            let ours: Vec<u64> = (0..2_000).filter(|&q| selected(seed, q, every)).collect();
            assert_eq!(kept, ours, "every={every} seed={seed}");
        }
        assert!(!selected(1, 2, 0), "every = 0 selects nothing");
        assert!(selected(1, 2, 1), "every = 1 selects everything");
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        reset();
        begin_unit(true);
        span(Span::CanBus, || {
            std::thread::sleep(std::time::Duration::from_millis(3));
            span(Span::HpeIngress, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            span(Span::CarFwFrame, || {
                span(Span::SimMetrics, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
        });
        end_units();
        let (bus, ingress, fw, metrics) = (
            raw(Span::CanBus),
            raw(Span::HpeIngress),
            raw(Span::CarFwFrame),
            raw(Span::SimMetrics),
        );
        assert_eq!(bus.children, 2, "only direct children count");
        assert_eq!(fw.children, 1);
        assert!(ingress.raw_ns >= 5_000_000 && metrics.raw_ns >= 2_000_000);
        assert!(fw.raw_ns < 1_000_000, "fw self excludes its child");
        assert!(
            (3_000_000..5_000_000).contains(&bus.raw_ns),
            "{}",
            bus.raw_ns
        );
        // with no untimed unit there is nothing to measure timer cost
        // against, so the rows are the raw self times: their sum is the
        // root span's duration
        let snap = snapshot();
        assert_eq!(snap.timer, TimerCost::default());
        let sum: u64 = [bus, ingress, fw, metrics].iter().map(|a| a.raw_ns).sum();
        assert!((snap.total_ns() - sum as f64).abs() < 1.0);
        assert!(sum >= 10_000_000);
    }

    #[test]
    fn untimed_units_count_calls_and_scale_timed_ones() {
        reset();
        for seq in 0..8u64 {
            begin_unit(seq % 4 == 0);
            span(Span::CanTick, || black_box(seq));
        }
        end_units();
        span_fixed(Span::CarBuild, || black_box(()));
        let snap = snapshot();
        assert_eq!(snap.row(Span::CanTick).calls, 8);
        assert_eq!((snap.units, snap.timed_units), (8, 2));
        assert_eq!(snap.row(Span::CarBuild).calls, 1);
        assert_eq!(snap.row(Span::Probe).calls, 2, "one probe per timed unit");
        let walls = STATE.with(|s| s.borrow().walls);
        assert_eq!((walls.timed, walls.untimed, walls.timed_spans), (2, 6, 4));
    }

    #[test]
    fn compensated_rows_estimate_untimed_cost() {
        // Units of known shape: a parent with ten small children. The
        // compensated rows of the timed units, scaled, must come close to
        // what the untimed units cost. A preemption inside one unit skews
        // a whole attempt, so the test takes the best of a few.
        let attempt = || {
            reset();
            let mut untimed_ns = 0u128;
            for seq in 0..4_000u64 {
                let timed = seq % 4 == 0;
                begin_unit(timed);
                let t0 = Instant::now();
                span(Span::CanBus, || {
                    spin(200);
                    for _ in 0..10 {
                        span(Span::HpeIngress, || spin(20));
                    }
                });
                if !timed {
                    untimed_ns += t0.elapsed().as_nanos();
                }
            }
            end_units();
            let snap = snapshot();
            assert!(
                snap.timer.inner > 0.0 && snap.timer.outer > 0.0,
                "{:?}",
                snap.timer
            );
            (snap.total_ns() / 4_000.0, untimed_ns as f64 / 3_000.0)
        };
        let attempts: Vec<(f64, f64)> = (0..5).map(|_| attempt()).collect();
        assert!(
            attempts
                .iter()
                .any(|(ledger, untimed)| (0.6..1.6).contains(&(ledger / untimed))),
            "ledger vs untimed ns per unit: {attempts:?}"
        );
    }
}
