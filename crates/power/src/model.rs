//! Island power models.

/// Affine CPU power model: `watts = idle + (peak − idle) × utilization`,
/// with utilization as a fraction of the whole package (0..=1).
///
/// Defaults approximate a 2006-era dual-core Xeon package.
///
/// # Example
///
/// ```
/// use power::CpuPowerModel;
/// let m = CpuPowerModel::xeon_2006();
/// assert_eq!(m.watts(0.0), 40.0);
/// assert_eq!(m.watts(1.0), 90.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuPowerModel {
    /// Package idle power in watts.
    pub idle_w: f64,
    /// Package power at full utilization.
    pub peak_w: f64,
}

impl CpuPowerModel {
    /// A dual-core 2.66 GHz Xeon package of the paper's era.
    pub fn xeon_2006() -> Self {
        CpuPowerModel {
            idle_w: 40.0,
            peak_w: 90.0,
        }
    }

    /// Power at `utilization` (clamped to 0..=1 of the package).
    pub fn watts(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_w + (self.peak_w - self.idle_w) * u
    }
}

impl Default for CpuPowerModel {
    fn default() -> Self {
        Self::xeon_2006()
    }
}

/// A discrete DVFS operating point of the x86 package.
///
/// Frequency is an integer percent of nominal so the scheduler can scale
/// service rates with exact rational arithmetic (`freq_percent / 100`);
/// voltage is a fraction of nominal supply.
///
/// # Example
///
/// ```
/// use power::{CpuPowerModel, DvfsState};
/// let m = CpuPowerModel::xeon_2006();
/// let nominal = DvfsState::nominal();
/// // At the nominal point the scaled model is the plain affine model.
/// assert_eq!(m.watts_at(0.7, nominal), m.watts(0.7));
/// // Every lower rung draws strictly less at the same utilization.
/// let low = DvfsState::xeon_ladder()[3];
/// assert!(m.watts_at(0.7, low) < m.watts(0.7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsState {
    /// Core frequency as an integer percent of nominal (100 = nominal).
    pub freq_percent: u32,
    /// Supply voltage as a fraction of nominal.
    pub volt: f64,
}

impl DvfsState {
    /// The nominal (full-speed) operating point.
    pub const fn nominal() -> Self {
        DvfsState {
            freq_percent: 100,
            volt: 1.0,
        }
    }

    /// The Xeon's discrete P-state ladder, fastest first. Voltage steps
    /// track frequency the way 2006-era SpeedStep tables did (voltage
    /// falls more slowly than frequency).
    pub const fn xeon_ladder() -> [DvfsState; 4] {
        [
            DvfsState {
                freq_percent: 100,
                volt: 1.0,
            },
            DvfsState {
                freq_percent: 85,
                volt: 0.95,
            },
            DvfsState {
                freq_percent: 70,
                volt: 0.9,
            },
            DvfsState {
                freq_percent: 55,
                volt: 0.85,
            },
        ]
    }

    /// The frequency as an exact rational `(numerator, denominator)`
    /// speed factor for the scheduler: nominal is `(100, 100)`.
    pub const fn speed(&self) -> (u64, u64) {
        (self.freq_percent as u64, 100)
    }
}

impl Default for DvfsState {
    fn default() -> Self {
        Self::nominal()
    }
}

impl CpuPowerModel {
    /// Power at `utilization` when the package runs at operating point
    /// `p`: leakage (idle) scales with voltage, switching (dynamic)
    /// power scales with `f · V²`. At the nominal point this reproduces
    /// [`CpuPowerModel::watts`] exactly.
    pub fn watts_at(&self, utilization: f64, p: DvfsState) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let f = p.freq_percent as f64 / 100.0;
        self.idle_w * p.volt + (self.peak_w - self.idle_w) * u * f * p.volt * p.volt
    }
}

/// Network-processor power model: a dominant static component (the
/// IXP2850's microengines run whether or not packets flow) plus a small
/// per-traffic term.
///
/// # Example
///
/// ```
/// use power::IxpPowerModel;
/// let m = IxpPowerModel::ixp2850();
/// assert!(m.watts(0.0) >= 20.0);
/// assert!(m.watts(500.0) > m.watts(0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IxpPowerModel {
    /// Static power in watts.
    pub static_w: f64,
    /// Additional watts per 1000 packets/second of traffic.
    pub per_kpps_w: f64,
}

impl IxpPowerModel {
    /// The IXP2850 network processor (~25 W typical).
    pub fn ixp2850() -> Self {
        IxpPowerModel {
            static_w: 25.0,
            per_kpps_w: 0.02,
        }
    }

    /// Power at `kpps` thousand packets per second.
    pub fn watts(&self, kpps: f64) -> f64 {
        self.static_w + self.per_kpps_w * kpps.max(0.0)
    }
}

impl Default for IxpPowerModel {
    fn default() -> Self {
        Self::ixp2850()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_is_affine_and_clamped() {
        let m = CpuPowerModel {
            idle_w: 10.0,
            peak_w: 110.0,
        };
        assert_eq!(m.watts(0.5), 60.0);
        assert_eq!(m.watts(-1.0), 10.0);
        assert_eq!(m.watts(2.0), 110.0);
    }

    #[test]
    fn ixp_model_scales_with_traffic() {
        let m = IxpPowerModel {
            static_w: 20.0,
            per_kpps_w: 0.1,
        };
        assert_eq!(m.watts(0.0), 20.0);
        assert_eq!(m.watts(100.0), 30.0);
        assert_eq!(m.watts(-5.0), 20.0);
    }

    #[test]
    fn defaults_are_the_paper_era_parts() {
        assert_eq!(CpuPowerModel::default(), CpuPowerModel::xeon_2006());
        assert_eq!(IxpPowerModel::default(), IxpPowerModel::ixp2850());
    }

    #[test]
    fn nominal_point_reproduces_the_plain_model_bit_exactly() {
        let m = CpuPowerModel::xeon_2006();
        for u in [0.0, 0.13, 0.5, 0.77, 1.0] {
            assert_eq!(m.watts_at(u, DvfsState::nominal()), m.watts(u));
        }
    }

    #[test]
    fn ladder_is_monotone_in_power_and_frequency() {
        let m = CpuPowerModel::xeon_2006();
        let ladder = DvfsState::xeon_ladder();
        for w in ladder.windows(2) {
            assert!(w[0].freq_percent > w[1].freq_percent);
            assert!(m.watts_at(0.8, w[0]) > m.watts_at(0.8, w[1]));
            // Even idle power falls down the ladder (leakage tracks V).
            assert!(m.watts_at(0.0, w[0]) > m.watts_at(0.0, w[1]));
        }
    }

    #[test]
    fn speed_rational_is_exact() {
        assert_eq!(DvfsState::nominal().speed(), (100, 100));
        assert_eq!(DvfsState::xeon_ladder()[3].speed(), (55, 100));
    }
}
