// Fixture: calls to functions a crate root re-exports with `pub use`,
// once through the crate-root path and once through an imported name.
// Linted at the virtual path crates/sim/src/fixture.rs — never compiled.
use mmwave_telemetry::field_u64;

fn main() {
    let line = "{\"a\":1}";
    let _ = mmwave_telemetry::field_str(line, "a");
    let _ = field_u64(line, "a");
}
