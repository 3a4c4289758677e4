//! The four switch-fabric architectures analyzed in the paper (§4).

use serde::{Deserialize, Serialize};

/// A switch-fabric architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Architecture {
    /// `N × N` crossbar: a crosspoint switch at every input/output
    /// intersection; space-division multiplexing, interconnect-contention
    /// free (paper §4.1).
    Crossbar,
    /// Fully-connected network: one N-input MUX per output port; every
    /// source-destination pair has a dedicated path (paper §4.2).
    FullyConnected,
    /// Banyan (butterfly-isomorphic) self-routing network: `½·N·log2(N)`
    /// 2×2 binary switches in `log2(N)` stages; suffers interconnect
    /// contention (internal blocking) and needs internal buffers (paper §4.3).
    Banyan,
    /// Batcher-Banyan: a Batcher sorting network in front of the Banyan
    /// removes interconnect contention at the cost of
    /// `½·log2(N)·(log2(N)+1)` extra sorting stages (paper §4.4).
    BatcherBanyan,
}

impl Architecture {
    /// All four architectures, in the order the paper presents them.
    pub const ALL: [Architecture; 4] = [
        Architecture::Crossbar,
        Architecture::FullyConnected,
        Architecture::Banyan,
        Architecture::BatcherBanyan,
    ];

    /// A short lowercase identifier suitable for file names and CSV columns.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Architecture::Crossbar => "crossbar",
            Architecture::FullyConnected => "fully_connected",
            Architecture::Banyan => "banyan",
            Architecture::BatcherBanyan => "batcher_banyan",
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Architecture::Crossbar => write!(f, "Crossbar"),
            Architecture::FullyConnected => write!(f, "Fully connected"),
            Architecture::Banyan => write!(f, "Banyan"),
            Architecture::BatcherBanyan => write!(f, "Batcher-Banyan"),
        }
    }
}

impl std::str::FromStr for Architecture {
    type Err = ParseArchitectureError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace(['-', ' '], "_").as_str() {
            "crossbar" => Ok(Architecture::Crossbar),
            "fully_connected" | "fullyconnected" | "fc" => Ok(Architecture::FullyConnected),
            "banyan" => Ok(Architecture::Banyan),
            "batcher_banyan" | "batcherbanyan" | "batcher" => Ok(Architecture::BatcherBanyan),
            _ => Err(ParseArchitectureError {
                input: s.to_owned(),
            }),
        }
    }
}

/// Error returned when parsing an [`Architecture`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArchitectureError {
    input: String,
}

impl std::fmt::Display for ParseArchitectureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown architecture `{}` (expected crossbar, fully_connected, banyan or batcher_banyan)",
            self.input
        )
    }
}

impl std::error::Error for ParseArchitectureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_accepts_common_spellings() {
        assert_eq!(
            "crossbar".parse::<Architecture>().unwrap(),
            Architecture::Crossbar
        );
        assert_eq!(
            "Batcher-Banyan".parse::<Architecture>().unwrap(),
            Architecture::BatcherBanyan
        );
        assert_eq!(
            "fc".parse::<Architecture>().unwrap(),
            Architecture::FullyConnected
        );
        assert!("torus".parse::<Architecture>().is_err());
        assert!("torus"
            .parse::<Architecture>()
            .unwrap_err()
            .to_string()
            .contains("torus"));
    }

    #[test]
    fn slugs_and_display_are_unique() {
        let mut slugs: Vec<_> = Architecture::ALL.iter().map(|a| a.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 4);
        assert_eq!(Architecture::FullyConnected.to_string(), "Fully connected");
    }
}
