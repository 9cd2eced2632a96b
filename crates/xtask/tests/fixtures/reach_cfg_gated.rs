// Fixture: a method call that only the telemetry build compiles, on a
// value from a crate this file names in a path but never `use`s.
// Linted at the virtual path crates/core/src/fixture.rs — never compiled.
use mmwave_hotpath::hot_path;

#[hot_path]
pub fn fit(x: f64) -> f64 {
    #[cfg(feature = "telemetry")]
    {
        let tracer = mmwave_telemetry::Tracer::disabled();
        tracer.begin();
    }
    x * 2.0
}

fn main() {
    fit(1.0);
}
