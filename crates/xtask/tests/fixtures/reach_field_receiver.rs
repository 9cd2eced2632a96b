// Fixture: a method call through a field whose type lives in a crate
// this file names only in the field's type. Linted at the virtual path
// crates/sim/src/fixture.rs — never compiled.
pub struct SlotLoop {
    tracer: mmwave_telemetry::Tracer,
}

impl SlotLoop {
    fn step(&self) {
        self.tracer.end();
    }
}

fn main() {
    let l = SlotLoop {
        tracer: Default::default(),
    };
    l.step();
}
