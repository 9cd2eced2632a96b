//! 2-D geometry primitives for the image-method ray tracer.
//!
//! Scenes live in a 2-D plan view (the paper's arrays beamform only in
//! azimuth, §5.1, so elevation adds nothing to the reproduction). Distances
//! are meters.

/// A 2-D point / vector.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Vec2 {
    /// x coordinate, meters.
    pub x: f64,
    /// y coordinate, meters.
    pub y: f64,
}

/// Shorthand constructor.
#[inline]
pub const fn v2(x: f64, y: f64) -> Vec2 {
    Vec2 { x, y }
}

impl Vec2 {
    /// Origin.
    pub const ZERO: Vec2 = v2(0.0, 0.0);

    /// Euclidean length.
    pub fn len(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Distance to another point.
    pub fn dist(self, other: Vec2) -> f64 {
        (self - other).len()
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction; `None` for the zero vector.
    pub fn normalized(self) -> Option<Vec2> {
        let l = self.len();
        if l < 1e-12 {
            None
        } else {
            Some(v2(self.x / l, self.y / l))
        }
    }

    /// Angle of this vector measured from the +y axis toward +x, degrees.
    ///
    /// This matches the array-boresight convention used throughout the
    /// workspace: the gNB array faces +y, so a target straight ahead is at
    /// 0°, to its right (+x) at +90°.
    pub fn bearing_deg(self) -> f64 {
        self.x.atan2(self.y).to_degrees()
    }
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    fn add(self, o: Vec2) -> Vec2 {
        v2(self.x + o.x, self.y + o.y)
    }
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, o: Vec2) -> Vec2 {
        v2(self.x - o.x, self.y - o.y)
    }
}

impl std::ops::Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, k: f64) -> Vec2 {
        v2(self.x * k, self.y * k)
    }
}

impl std::ops::Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        v2(-self.x, -self.y)
    }
}

/// A line segment (a wall face).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Vec2,
    /// Second endpoint.
    pub b: Vec2,
}

impl Segment {
    /// Constructs a segment. Panics on degenerate (zero-length) segments.
    pub fn new(a: Vec2, b: Vec2) -> Self {
        assert!(a.dist(b) > 1e-9, "degenerate segment");
        Self { a, b }
    }

    /// Segment length.
    pub fn len(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Mirror image of point `p` across the infinite line through this
    /// segment — the image-source construction.
    // xtask-allow(hot-path-panic): wall segments have distinct endpoints by scene construction; a degenerate wall is a scene bug worth the loud panic
    pub fn mirror(&self, p: Vec2) -> Vec2 {
        let d = (self.b - self.a).normalized().expect("non-degenerate");
        let ap = p - self.a;
        let proj = d * ap.dot(d);
        let foot = self.a + proj;
        foot + (foot - p)
    }

    /// Intersection point of this segment with the segment `p→q`, if the
    /// two properly intersect (interior crossing; endpoint touches count).
    pub fn intersect(&self, p: Vec2, q: Vec2) -> Option<Vec2> {
        let r = self.b - self.a;
        let s = q - p;
        let denom = r.cross(s);
        if denom.abs() < 1e-12 {
            return None; // parallel
        }
        let t = (p - self.a).cross(s) / denom;
        let u = (p - self.a).cross(r) / denom;
        if (-1e-9..=1.0 + 1e-9).contains(&t) && (-1e-9..=1.0 + 1e-9).contains(&u) {
            Some(self.a + r * t)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn vclose(a: Vec2, b: Vec2) -> bool {
        a.dist(b) < 1e-9
    }

    #[test]
    fn vector_basics() {
        let a = v2(3.0, 4.0);
        assert!(close(a.len(), 5.0));
        assert!(close(a.dist(v2(0.0, 0.0)), 5.0));
        assert!(close(a.dot(v2(1.0, 0.0)), 3.0));
        assert!(close(a.cross(v2(1.0, 0.0)), -4.0));
        assert!(vclose(a.normalized().unwrap(), v2(0.6, 0.8)));
        assert!(Vec2::ZERO.normalized().is_none());
    }

    #[test]
    fn bearing_convention() {
        // +y is boresight (0°); +x is +90°.
        assert!(close(v2(0.0, 1.0).bearing_deg(), 0.0));
        assert!(close(v2(1.0, 0.0).bearing_deg(), 90.0));
        assert!(close(v2(-1.0, 0.0).bearing_deg(), -90.0));
        assert!(close(v2(1.0, 1.0).bearing_deg(), 45.0));
    }

    #[test]
    fn mirror_across_vertical_wall() {
        // Wall x = 5.
        let wall = Segment::new(v2(5.0, -10.0), v2(5.0, 10.0));
        assert!(vclose(wall.mirror(v2(0.0, 0.0)), v2(10.0, 0.0)));
        assert!(vclose(wall.mirror(v2(3.0, 7.0)), v2(7.0, 7.0)));
        // Points on the wall are fixed.
        assert!(vclose(wall.mirror(v2(5.0, 2.0)), v2(5.0, 2.0)));
    }

    #[test]
    fn mirror_is_involution() {
        let wall = Segment::new(v2(1.0, 2.0), v2(4.0, -1.0));
        let p = v2(-2.0, 3.5);
        assert!(vclose(wall.mirror(wall.mirror(p)), p));
    }

    #[test]
    fn intersection_basic() {
        let s = Segment::new(v2(0.0, 0.0), v2(10.0, 0.0));
        let hit = s.intersect(v2(5.0, -1.0), v2(5.0, 1.0)).unwrap();
        assert!(vclose(hit, v2(5.0, 0.0)));
        // Miss: crossing line beyond the segment.
        assert!(s.intersect(v2(11.0, -1.0), v2(11.0, 1.0)).is_none());
        // Parallel.
        assert!(s.intersect(v2(0.0, 1.0), v2(10.0, 1.0)).is_none());
    }

    #[test]
    fn intersection_endpoint_touch_counts() {
        let s = Segment::new(v2(0.0, 0.0), v2(10.0, 0.0));
        let hit = s.intersect(v2(0.0, -1.0), v2(0.0, 1.0));
        assert!(hit.is_some());
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_segment_rejected() {
        Segment::new(v2(1.0, 1.0), v2(1.0, 1.0));
    }
}
