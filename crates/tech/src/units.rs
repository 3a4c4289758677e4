//! Physical-quantity newtypes used throughout the power model.
//!
//! All quantities are stored internally in SI base units (`f64`), but the
//! constructors and accessors use the scales that the DAC 2002 paper works
//! in: femtojoules for bit energies, picojoules for buffer accesses,
//! femtofarads for gate/wire capacitances, milliwatts for fabric power.
//!
//! The newtypes exist to make it impossible to, say, add a capacitance to an
//! energy, or to pass a voltage where a power is expected (C-NEWTYPE).
//!
//! # Examples
//!
//! ```
//! use fabric_power_tech::units::{Capacitance, Energy, Voltage};
//!
//! let c = Capacitance::from_femtofarads(1600.0);
//! let v = Voltage::from_volts(3.3);
//! // E = 1/2 C V^2 — the switching energy of one rail-to-rail transition.
//! let e = c.switching_energy(v);
//! assert!((e.as_femtojoules() - 8712.0).abs() < 1.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// Helper: format a value with an engineering prefix for `Display` impls.
fn engineering(value: f64, unit: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if value == 0.0 {
        return write!(f, "0 {unit}");
    }
    let magnitude = value.abs();
    let (scaled, prefix) = if magnitude >= 1.0 {
        (value, "")
    } else if magnitude >= 1e-3 {
        (value * 1e3, "m")
    } else if magnitude >= 1e-6 {
        (value * 1e6, "u")
    } else if magnitude >= 1e-9 {
        (value * 1e9, "n")
    } else if magnitude >= 1e-12 {
        (value * 1e12, "p")
    } else if magnitude >= 1e-15 {
        (value * 1e15, "f")
    } else {
        (value * 1e18, "a")
    };
    write!(f, "{scaled:.3} {prefix}{unit}")
}

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal, $si_ctor:ident, $si_getter:ident
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates the quantity from its SI base-unit value.
            #[must_use]
            pub fn $si_ctor(value: f64) -> Self {
                Self(value)
            }

            /// Returns the quantity in its SI base unit.
            #[must_use]
            pub fn $si_getter(self) -> f64 {
                self.0
            }

            /// Returns `true` if the quantity is exactly zero.
            #[must_use]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// The dimensionless ratio of two quantities.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                engineering(self.0, $unit, f)
            }
        }
    };
}

quantity!(
    /// An amount of energy, stored in joules.
    ///
    /// Bit energies in the paper are reported in units of 1e-15 J (fJ) for
    /// node switches and wires, and 1e-12 J (pJ) for buffer accesses.
    Energy,
    "J",
    from_joules,
    as_joules
);

quantity!(
    /// An electrical capacitance, stored in farads.
    Capacitance,
    "F",
    from_farads,
    as_farads
);

quantity!(
    /// An electrical potential, stored in volts.
    Voltage,
    "V",
    from_volts,
    as_volts
);

quantity!(
    /// A power (energy per unit time), stored in watts.
    Power,
    "W",
    from_watts,
    as_watts
);

quantity!(
    /// A duration, stored in seconds.
    TimeSpan,
    "s",
    from_seconds,
    as_seconds
);

quantity!(
    /// A physical length, stored in meters.
    Length,
    "m",
    from_meters,
    as_meters
);

impl Energy {
    /// Creates an energy from femtojoules (1e-15 J), the unit of Table 1.
    #[must_use]
    pub fn from_femtojoules(fj: f64) -> Self {
        Self::from_joules(fj * 1e-15)
    }

    /// Returns the energy in femtojoules.
    #[must_use]
    pub fn as_femtojoules(self) -> f64 {
        self.as_joules() * 1e15
    }

    /// Creates an energy from picojoules (1e-12 J), the unit of Table 2.
    #[must_use]
    pub fn from_picojoules(pj: f64) -> Self {
        Self::from_joules(pj * 1e-12)
    }

    /// Returns the energy in picojoules.
    #[must_use]
    pub fn as_picojoules(self) -> f64 {
        self.as_joules() * 1e12
    }

    /// Average power when this energy is dissipated over `span`.
    ///
    /// Returns [`Power::ZERO`] when `span` is zero to avoid a meaningless
    /// infinite power.
    #[must_use]
    pub fn over(self, span: TimeSpan) -> Power {
        if span.is_zero() {
            Power::ZERO
        } else {
            Power::from_watts(self.as_joules() / span.as_seconds())
        }
    }
}

impl Capacitance {
    /// Creates a capacitance from femtofarads (1e-15 F).
    #[must_use]
    pub fn from_femtofarads(ff: f64) -> Self {
        Self::from_farads(ff * 1e-15)
    }

    /// Creates a capacitance from picofarads (1e-12 F).
    #[must_use]
    pub fn from_picofarads(pf: f64) -> Self {
        Self::from_farads(pf * 1e-12)
    }

    /// Energy of one rail-to-rail transition: `E = ½ · C · V²` (paper Eq. 2).
    ///
    /// This is the energy drawn from the supply to charge the capacitance
    /// that is dissipated either on the charge or on the discharge edge.
    #[must_use]
    pub fn switching_energy(self, swing: Voltage) -> Energy {
        let v = swing.as_volts();
        Energy::from_joules(0.5 * self.as_farads() * v * v)
    }
}

impl Power {
    /// Returns the power in milliwatts.
    #[must_use]
    pub fn as_milliwatts(self) -> f64 {
        self.as_watts() * 1e3
    }
}

impl Length {
    /// Creates a length from micrometers (1e-6 m), the scale of wire pitch.
    #[must_use]
    pub fn from_micrometers(um: f64) -> Self {
        Self::from_meters(um * 1e-6)
    }
}

/// A clock frequency, stored in hertz.
///
/// Separate from the `quantity!` family because its natural companion
/// operations (period, cycle counting) differ from the additive quantities.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from megahertz (1e6 Hz); the paper's SRAM is
    /// characterized at 133 MHz.
    #[must_use]
    pub fn from_megahertz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// The period of one clock cycle.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero or negative.
    #[must_use]
    pub fn period(self) -> TimeSpan {
        assert!(self.0 > 0.0, "frequency must be positive to have a period");
        TimeSpan::from_seconds(1.0 / self.0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} GHz", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} MHz", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.3} kHz", self.0 / 1e3)
        } else {
            write!(f, "{:.3} Hz", self.0)
        }
    }
}

impl Default for Frequency {
    fn default() -> Self {
        Self::from_megahertz(133.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_unit_round_trips() {
        let e = Energy::from_femtojoules(220.0);
        assert!((e.as_femtojoules() - 220.0).abs() < 1e-9);
        assert!((e.as_picojoules() - 0.220).abs() < 1e-12);
        assert!((e.as_joules() - 220e-15).abs() < 1e-24);
    }

    #[test]
    fn capacitance_unit_round_trips() {
        let c = Capacitance::from_femtofarads(500.0);
        assert!((c.as_farads() - 500e-15).abs() < 1e-24);
        let p = Capacitance::from_picofarads(0.5);
        assert!((p.as_farads() - c.as_farads()).abs() < 1e-24);
    }

    #[test]
    fn switching_energy_matches_half_cv_squared() {
        // 0.5 * 1 pF * (3.3 V)^2 = 5.445 pJ
        let c = Capacitance::from_picofarads(1.0);
        let e = c.switching_energy(Voltage::from_volts(3.3));
        assert!((e.as_picojoules() - 5.445).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_ops_behave_like_f64() {
        let a = Energy::from_joules(2.0);
        let b = Energy::from_joules(3.0);
        assert_eq!((a + b).as_joules(), 5.0);
        assert_eq!((b - a).as_joules(), 1.0);
        assert_eq!((a * 2.0).as_joules(), 4.0);
        assert_eq!((b / 2.0).as_joules(), 1.5);
        assert_eq!(b / a, 1.5);
    }

    #[test]
    fn add_assign_and_sub_assign() {
        let mut e = Energy::ZERO;
        e += Energy::from_joules(1.0);
        e += Energy::from_joules(2.5);
        assert_eq!(e.as_joules(), 3.5);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            Energy::from_femtojoules(10.0),
            Energy::from_femtojoules(20.0),
            Energy::from_femtojoules(30.0),
        ];
        let total: Energy = parts.into_iter().sum();
        assert!((total.as_femtojoules() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn power_from_energy_over_time() {
        let e = Energy::from_picojoules(100.0);
        let p = e.over(TimeSpan::from_seconds(10e-9));
        assert!((p.as_milliwatts() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn power_over_zero_span_is_zero() {
        let e = Energy::from_joules(1.0);
        assert_eq!(e.over(TimeSpan::ZERO), Power::ZERO);
    }

    #[test]
    fn frequency_period_and_hertz() {
        let f = Frequency::from_megahertz(133.0);
        assert!((f.period().as_seconds() - 7.5187e-9).abs() < 1e-12);
        assert!((f.0 - 133e6).abs() < 1e-3);
        assert_eq!(Frequency::default(), Frequency::from_megahertz(133.0));
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_period_panics() {
        let _ = Frequency::from_megahertz(0.0).period();
    }

    #[test]
    fn length_conversions() {
        let l = Length::from_micrometers(32.0);
        assert!((l.as_meters() - 32e-6).abs() < 1e-15);
    }

    #[test]
    fn display_uses_engineering_prefixes() {
        assert_eq!(format!("{}", Energy::from_femtojoules(87.0)), "87.000 fJ");
        assert_eq!(format!("{}", Energy::from_picojoules(1.5)), "1.500 pJ");
        assert_eq!(format!("{}", Power::from_watts(12e-3)), "12.000 mW");
        assert_eq!(format!("{}", Energy::ZERO), "0 J");
        assert_eq!(
            format!("{}", Frequency::from_megahertz(133.0)),
            "133.000 MHz"
        );
    }

    #[test]
    fn serde_round_trip_is_transparent() {
        let e = Energy::from_femtojoules(1080.0);
        let json = serde_json::to_string(&e).expect("serialize");
        let back: Energy = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(e, back);
        // Transparent representation: serializes as a bare number.
        assert!(!json.contains('{'));
    }

    #[test]
    fn is_zero_and_is_finite() {
        assert!(Energy::ZERO.is_zero());
        assert!(!Energy::from_joules(1.0).is_zero());
        assert!(!Energy::from_joules(f64::NAN).is_zero());
    }
}
