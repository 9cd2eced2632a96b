// Fixture: methods the compiler calls with no call token — an operator
// impl and a `Display` impl — next to an impl of a workspace trait that
// nothing calls. Linted at the virtual path crates/channel/src/fixture.rs
// — never compiled.
pub struct Vec2 {
    pub x: f64,
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        Vec2 { x: self.x + o.x }
    }
}

impl std::fmt::Display for Vec2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.x)
    }
}

pub trait Shape {
    fn area(&self) -> f64;
}

impl Shape for Vec2 {
    fn area(&self) -> f64 {
        0.0
    }
}
