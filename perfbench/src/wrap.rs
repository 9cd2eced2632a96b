//! Transparent timing wrappers around the two interfaces a maintenance
//! tick crosses: [`BeamStrategy`] (the tick itself) and [`LinkFrontEnd`]
//! (the probes the tick issues). Every trait method is forwarded to the
//! wrapped value unchanged, so a wrapped run is bit-identical to an
//! unwrapped one. The wrappers read the clock around `on_tick`, and in the
//! traced run record a span around `on_tick` and around each probe.

use crate::calib::HostSpeed;
use crate::spans::SpanLog;
use mmreliable::frontend::{LinkFrontEnd, ProbeKind};
use mmreliable::linkstate::Transition;
use mmwave_array::geometry::ArrayGeometry;
use mmwave_array::weights::BeamWeights;
use mmwave_baselines::strategy::BeamStrategy;
use mmwave_channel::channel::GeometricChannel;
use mmwave_phy::chanest::ProbeObservation;
use std::time::Instant;

/// What the wrappers measure. Sample buffers are reserved up front by
/// [`Recorder::reserve_ticks`], so recording a tick never allocates.
pub struct Recorder {
    /// Nanoseconds of every `on_tick` call at nominal host speed, in call
    /// order.
    pub tick_ns: Vec<u64>,
    /// Host-speed correction applied to every recorded time.
    pub speed: HostSpeed,
    /// Span log of the traced run (`None` when untraced).
    pub spans: Option<SpanLog>,
}

impl Recorder {
    /// A recorder that keeps spans when `traced`.
    pub fn new(traced: bool) -> Self {
        Self {
            tick_ns: Vec::with_capacity(1 << 14),
            speed: HostSpeed::new(),
            spans: traced.then(SpanLog::new),
        }
    }

    /// Makes room for `n` more tick samples.
    pub fn reserve_ticks(&mut self, n: usize) {
        self.tick_ns.reserve(n);
    }

    /// Re-measures host speed when due, under a `calibrate` span. Call
    /// only between measured calls.
    pub fn calibrate(&mut self) {
        if self.speed.due() {
            self.open("calibrate");
            self.speed.measure();
            self.close();
        }
    }

    /// Nanoseconds since `start`, at nominal host speed.
    pub fn elapsed(&self, start: Instant) -> u64 {
        self.speed.scale(elapsed_ns(start))
    }

    /// Opens a span named `name` (no-op when untraced).
    pub fn open(&mut self, name: &'static str) {
        if let Some(s) = self.spans.as_mut() {
            s.open(name);
        }
    }

    /// Opens a span with its own id (no-op when untraced).
    pub fn open_id(&mut self, name: &'static str, id: u32) {
        if let Some(s) = self.spans.as_mut() {
            s.open_id(name, id);
        }
    }

    /// Closes the innermost open span (no-op when untraced).
    pub fn close(&mut self) {
        if let Some(s) = self.spans.as_mut() {
            s.close();
        }
    }
}

/// A [`BeamStrategy`] that times every `on_tick` call of `inner` and
/// hands it a [`TimedFrontEnd`] that spans every probe.
pub struct TimedStrategy<'a> {
    inner: &'a mut dyn BeamStrategy,
    rec: &'a mut Recorder,
}

impl<'a> TimedStrategy<'a> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: &'a mut dyn BeamStrategy, rec: &'a mut Recorder) -> Self {
        Self { inner, rec }
    }
}

impl BeamStrategy for TimedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_tick(&mut self, fe: &mut dyn LinkFrontEnd, t_s: f64) {
        self.rec.open("tick");
        let start = Instant::now();
        self.inner.on_tick(
            &mut TimedFrontEnd {
                inner: fe,
                rec: self.rec,
            },
            t_s,
        );
        let ns = self.rec.elapsed(start);
        self.rec.tick_ns.push(ns);
        self.rec.close();
    }

    fn weights(&self) -> BeamWeights {
        self.inner.weights()
    }

    fn weights_into(&self, out: &mut BeamWeights) {
        self.inner.weights_into(out);
    }

    fn observe_truth(&mut self, ch: &GeometricChannel) {
        self.inner.observe_truth(ch);
    }

    fn drain_transitions(&mut self) -> Vec<Transition> {
        self.inner.drain_transitions()
    }

    fn set_tracer(&mut self, tracer: mmwave_telemetry::Tracer) {
        self.inner.set_tracer(tracer);
    }
}

/// The front end a [`TimedStrategy`] hands to the wrapped tick: forwards
/// every [`LinkFrontEnd`] method and spans the probe calls.
pub struct TimedFrontEnd<'a> {
    inner: &'a mut dyn LinkFrontEnd,
    rec: &'a mut Recorder,
}

impl TimedFrontEnd<'_> {
    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn LinkFrontEnd) -> T) -> T {
        self.rec.open("probe");
        let out = f(&mut *self.inner);
        self.rec.close();
        out
    }
}

impl LinkFrontEnd for TimedFrontEnd<'_> {
    fn geometry(&self) -> &ArrayGeometry {
        self.inner.geometry()
    }

    fn probe_kind(&mut self, weights: &BeamWeights, kind: ProbeKind) -> ProbeObservation {
        self.timed(|fe| fe.probe_kind(weights, kind))
    }

    fn probe(&mut self, weights: &BeamWeights) -> ProbeObservation {
        self.timed(|fe| fe.probe(weights))
    }

    fn probe_kind_into(
        &mut self,
        weights: &BeamWeights,
        kind: ProbeKind,
        out: &mut ProbeObservation,
    ) {
        self.timed(|fe| fe.probe_kind_into(weights, kind, out));
    }

    fn probe_into(&mut self, weights: &BeamWeights, out: &mut ProbeObservation) {
        self.timed(|fe| fe.probe_into(weights, out));
    }

    fn wait(&mut self, dur_s: f64) {
        self.inner.wait(dur_s);
    }

    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }

    fn cancel_requested(&self) -> bool {
        self.inner.cancel_requested()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
