//! Network shapes (mesh/torus grids) and routing policies.
//!
//! Nodes are addressed `node = y * width + x` on a `width × height` grid.
//! Every router exposes the same fabric port map: port 0 is the local
//! injection/ejection port, ports 1–4 are the four grid directions in fixed
//! order (`X+`, `X−`, `Y+`, `Y−`).  The fabric port count (the node radix)
//! must be a power of two for the energy-model LUTs, so a 2-D network runs
//! on radix-8 nodes with three idle ports — idle ports charge nothing, since
//! energy is only charged per active flow.

use serde::{Deserialize, Serialize};

/// Fabric port reserved for local packet injection and ejection.
pub(crate) const LOCAL_PORT: usize = 0;

/// One of the four grid directions a packet can leave a router on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Direction {
    /// Toward larger `x` (fabric port 1).
    XPlus,
    /// Toward smaller `x` (fabric port 2).
    XMinus,
    /// Toward larger `y` (fabric port 3).
    YPlus,
    /// Toward smaller `y` (fabric port 4).
    YMinus,
}

impl Direction {
    /// The four directions in fixed (fabric-port) order.
    pub const ALL: [Self; 4] = [Self::XPlus, Self::XMinus, Self::YPlus, Self::YMinus];

    /// The fabric port this direction occupies on every router.
    #[must_use]
    pub fn port(self) -> usize {
        match self {
            Self::XPlus => 1,
            Self::XMinus => 2,
            Self::YPlus => 3,
            Self::YMinus => 4,
        }
    }

    /// The direction a packet travelling this way *arrives from* at the
    /// receiving router (its input port there).
    #[must_use]
    pub(crate) fn reverse(self) -> Self {
        match self {
            Self::XPlus => Self::XMinus,
            Self::XMinus => Self::XPlus,
            Self::YPlus => Self::YMinus,
            Self::YMinus => Self::YPlus,
        }
    }

    /// Stable index into per-direction arrays (`port() - 1`).
    #[must_use]
    pub fn index(self) -> usize {
        self.port() - 1
    }
}

/// How packets pick their next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Deterministic dimension-order (X-then-Y) routing: deadlock-free on a
    /// mesh, fully reproducible, but blind to congestion.
    DimensionOrder,
    /// Minimal-adaptive routing: among the (at most two) productive
    /// directions, take the one whose egress is least congested right now;
    /// ties go to the X dimension.  Still minimal — every hop reduces the
    /// remaining distance.
    MinimalAdaptive,
}

impl RoutingPolicy {
    /// The kebab-case spelling used in CSV columns, reports and seed
    /// fingerprints (stable across releases, unlike discriminant values).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Self::DimensionOrder => "dimension-order",
            Self::MinimalAdaptive => "minimal-adaptive",
        }
    }
}

/// A `width × height` grid of routers, optionally with wraparound (torus)
/// links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct NetworkShape {
    /// Routers along the X axis.
    pub width: usize,
    /// Routers along the Y axis.
    pub height: usize,
    /// `true` for a torus (wraparound links on both axes), `false` for a
    /// mesh.
    pub torus: bool,
}

impl NetworkShape {
    /// Total router count.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// The `(x, y)` coordinates of a node index.
    #[must_use]
    pub fn coordinates(&self, node: usize) -> (usize, usize) {
        (node % self.width, node / self.width)
    }

    /// The node index of `(x, y)`.
    #[must_use]
    pub(crate) fn node_at(&self, x: usize, y: usize) -> usize {
        y * self.width + x
    }

    /// The neighbor of `node` in `direction`, or `None` when the mesh edge
    /// has no link that way.  On a torus every direction wraps around.
    #[must_use]
    pub(crate) fn neighbor(&self, node: usize, direction: Direction) -> Option<usize> {
        let (x, y) = self.coordinates(node);
        let (nx, ny) = match direction {
            Direction::XPlus => {
                if x + 1 < self.width {
                    (x + 1, y)
                } else if self.torus && self.width > 1 {
                    (0, y)
                } else {
                    return None;
                }
            }
            Direction::XMinus => {
                if x > 0 {
                    (x - 1, y)
                } else if self.torus && self.width > 1 {
                    (self.width - 1, y)
                } else {
                    return None;
                }
            }
            Direction::YPlus => {
                if y + 1 < self.height {
                    (x, y + 1)
                } else if self.torus && self.height > 1 {
                    (x, 0)
                } else {
                    return None;
                }
            }
            Direction::YMinus => {
                if y > 0 {
                    (x, y - 1)
                } else if self.torus && self.height > 1 {
                    (x, self.height - 1)
                } else {
                    return None;
                }
            }
        };
        Some(self.node_at(nx, ny))
    }

    /// The productive direction along one axis, or `None` when the
    /// coordinate already matches.  On a torus the shorter way around wins;
    /// ties (exactly half way on an even ring) go to the positive direction.
    fn axis_direction(
        &self,
        from: usize,
        to: usize,
        extent: usize,
        plus: Direction,
        minus: Direction,
    ) -> Option<Direction> {
        if from == to {
            return None;
        }
        if self.torus {
            let forward = (to + extent - from) % extent;
            let backward = (from + extent - to) % extent;
            Some(if forward <= backward { plus } else { minus })
        } else {
            Some(if to > from { plus } else { minus })
        }
    }

    /// The minimal productive directions from `node` toward `destination`:
    /// `[X direction, Y direction]`, each `None` when that axis is already
    /// resolved.  Both `None` means the packet is home.
    #[must_use]
    pub(crate) fn productive_directions(
        &self,
        node: usize,
        destination: usize,
    ) -> [Option<Direction>; 2] {
        let (x, y) = self.coordinates(node);
        let (dx, dy) = self.coordinates(destination);
        [
            self.axis_direction(x, dx, self.width, Direction::XPlus, Direction::XMinus),
            self.axis_direction(y, dy, self.height, Direction::YPlus, Direction::YMinus),
        ]
    }

    /// The largest fabric port index the shape can use, i.e. the minimum
    /// node radix minus one.  A single-row network never touches the Y
    /// ports, so it fits a radix-4 node; anything 2-D needs radix ≥ 5
    /// (radix 8 in practice, since the energy model wants a power of two).
    #[must_use]
    pub(crate) fn max_used_port(&self) -> usize {
        let needs_y = self.height > 1;
        let needs_x = self.width > 1;
        if needs_y {
            Direction::YMinus.port()
        } else if needs_x {
            Direction::XMinus.port()
        } else {
            LOCAL_PORT
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    /// Minimal hop distance between two nodes: the oracle the routing
    /// tests check path lengths against.
    fn distance(shape: &NetworkShape, a: usize, b: usize) -> usize {
        let (ax, ay) = shape.coordinates(a);
        let (bx, by) = shape.coordinates(b);
        let axis = |from: usize, to: usize, extent: usize| {
            let direct = from.abs_diff(to);
            if shape.torus {
                direct.min(extent - direct)
            } else {
                direct
            }
        };
        axis(ax, bx, shape.width) + axis(ay, by, shape.height)
    }

    #[test]
    fn mesh_edges_have_no_neighbors() {
        let shape = NetworkConfig::mesh(3, 2).shape();
        assert_eq!(shape.neighbor(0, Direction::XMinus), None);
        assert_eq!(shape.neighbor(0, Direction::YMinus), None);
        assert_eq!(shape.neighbor(0, Direction::XPlus), Some(1));
        assert_eq!(shape.neighbor(0, Direction::YPlus), Some(3));
        assert_eq!(shape.neighbor(5, Direction::XPlus), None);
        assert_eq!(shape.neighbor(5, Direction::YPlus), None);
    }

    #[test]
    fn torus_wraps_both_axes() {
        let shape = NetworkConfig {
            torus: true,
            ..NetworkConfig::mesh(3, 2)
        }
        .shape();
        assert_eq!(shape.neighbor(0, Direction::XMinus), Some(2));
        assert_eq!(shape.neighbor(2, Direction::XPlus), Some(0));
        assert_eq!(shape.neighbor(0, Direction::YMinus), Some(3));
        assert_eq!(shape.neighbor(4, Direction::YPlus), Some(1));
    }

    #[test]
    fn reverse_direction_round_trips_across_a_link() {
        let shape = NetworkConfig {
            torus: true,
            ..NetworkConfig::mesh(4, 4)
        }
        .shape();
        for node in 0..shape.nodes() {
            for direction in Direction::ALL {
                let neighbor = shape.neighbor(node, direction).unwrap();
                assert_eq!(shape.neighbor(neighbor, direction.reverse()), Some(node));
            }
        }
    }

    #[test]
    fn torus_distance_uses_the_shorter_wrap() {
        let mesh = NetworkConfig::mesh(4, 1).shape();
        let torus = NetworkConfig {
            torus: true,
            ..NetworkConfig::mesh(4, 1)
        }
        .shape();
        assert_eq!(distance(&mesh, 0, 3), 3);
        assert_eq!(distance(&torus, 0, 3), 1);
    }

    #[test]
    fn productive_directions_reach_the_destination() {
        for shape in [
            NetworkConfig::mesh(4, 3).shape(),
            NetworkConfig {
                torus: true,
                ..NetworkConfig::mesh(4, 3)
            }
            .shape(),
        ] {
            for from in 0..shape.nodes() {
                for to in 0..shape.nodes() {
                    let mut node = from;
                    let mut steps = 0;
                    while node != to {
                        let [x, y] = shape.productive_directions(node, to);
                        let direction = x.or(y).expect("not home yet");
                        node = shape.neighbor(node, direction).expect("productive link");
                        steps += 1;
                        assert!(steps <= shape.nodes(), "routing loop {from}->{to}");
                    }
                    assert_eq!(steps, distance(&shape, from, to), "{from}->{to} minimal");
                }
            }
        }
    }

    #[test]
    fn single_row_networks_fit_a_radix_four_node() {
        assert_eq!(NetworkConfig::mesh(4, 1).shape().max_used_port(), 2);
        assert_eq!(NetworkConfig::mesh(2, 2).shape().max_used_port(), 4);
        assert_eq!(NetworkConfig::mesh(1, 1).shape().max_used_port(), 0);
    }
}
