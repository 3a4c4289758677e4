//! Network configuration and the per-run network report.

use serde::{Deserialize, Serialize};

use fabric_power_router::config::SimulationReport;
use fabric_power_tech::units::Energy;

use crate::topology::{NetworkShape, RoutingPolicy};

/// Everything that distinguishes a network run from a single-router run:
/// the grid shape, the routing policy, and the inter-router link knobs.
///
/// Per-node parameters (fabric architecture, node radix, offered load per
/// local port, packet length, seeds, cycle counts) stay in the router
/// layer's `SimulationConfig`; this struct only describes the fabric *of
/// fabrics* wrapped around those nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Routers along the X axis.
    pub width: usize,
    /// Routers along the Y axis.
    pub height: usize,
    /// `true` for a torus (wraparound links), `false` for a mesh.
    pub torus: bool,
    /// Next-hop selection policy.
    pub routing: RoutingPolicy,
    /// Credit depth of each inter-router link: the number of packets that
    /// may be in flight on the link plus waiting in the receiver's input
    /// queue before the sender stalls.
    pub link_depth: usize,
    /// Cycles a packet spends crossing one inter-router link.
    pub link_latency: u64,
    /// Electrical length of one inter-router link, in the same wire-grid
    /// units the intra-fabric segments use; link-traversal energy is
    /// `polarity flips × grid bit energy × link_grids` per word.
    pub link_grids: u32,
}

impl NetworkConfig {
    /// A mesh with dimension-order routing and the default link knobs
    /// (depth 4, single-cycle traversal, 16-grid links).
    #[must_use]
    pub fn mesh(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            torus: false,
            routing: RoutingPolicy::DimensionOrder,
            link_depth: 4,
            link_latency: 1,
            link_grids: 16,
        }
    }

    /// The grid shape.
    #[must_use]
    pub(crate) fn shape(&self) -> NetworkShape {
        NetworkShape {
            width: self.width,
            height: self.height,
            torus: self.torus,
        }
    }

    /// Total router count.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }
}

/// Network-level aggregates measured by a multi-node run, reported next to
/// the rolled-up `SimulationReport`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Routers along the X axis.
    pub width: usize,
    /// Routers along the Y axis.
    pub height: usize,
    /// Whether the grid wrapped around.
    pub torus: bool,
    /// The routing policy the run used.
    pub routing: RoutingPolicy,
    /// Mean link traversals per delivered packet.
    pub average_hops: f64,
    /// Median link traversals per delivered packet.
    pub hops_p50: f64,
    /// 95th-percentile link traversals per delivered packet.
    pub hops_p95: f64,
    /// 99th-percentile link traversals per delivered packet.
    pub hops_p99: f64,
    /// Energy dissipated on inter-router links during the measurement
    /// window (also folded into the energy account's wire component, so the
    /// account total stays complete).
    pub link_energy: Energy,
    /// Total measured energy divided by the number of router traversals of
    /// packets delivered in the window — the per-hop attribution figure.
    pub per_hop_energy: Energy,
    /// Delivered words per cycle per node during the measurement window —
    /// tracks the offered load below saturation and flattens at the
    /// network's capacity above it.
    pub saturation_throughput: f64,
    /// Payload words forwarded over inter-router links in the window.
    pub link_words: u64,
    /// Launch attempts that stalled because a link was out of credits.
    pub credit_stalls: u64,
}

/// The result of a network run: the familiar single-router-shaped roll-up
/// plus the network aggregates (absent for a 1×1 network, which *is* a
/// single router and reports exactly as one).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkReport {
    /// Aggregate report in the single-router schema: summed energy and
    /// word/packet counts, end-to-end latency percentiles.
    pub simulation: SimulationReport,
    /// Network-level aggregates; `None` for a 1×1 network.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub network: Option<NetworkStats>,
}
