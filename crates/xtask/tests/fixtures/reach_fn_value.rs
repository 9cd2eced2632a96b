// Fixture: functions named as values — a fn pointer in a table and a
// path handed to an iterator adapter — never called by name. Linted at
// the virtual path crates/bench/src/bin/fixture.rs — never compiled.
type Factory = fn() -> u32;

fn beamspy() -> u32 {
    1
}

struct Sweep;

impl Sweep {
    fn widen(x: u32) -> u32 {
        x + 1
    }
}

fn main() {
    let table: [(&str, Factory); 1] = [("beamspy", beamspy)];
    let _: Vec<u32> = table.iter().map(|(_, f)| f()).map(Sweep::widen).collect();
}
