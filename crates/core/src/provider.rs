//! The service-provider (SP) model: a multi-mode power-managed device.

use std::fmt;

use dpm_linalg::DMatrix;

use crate::DpmError;

/// One power mode of the service provider.
#[derive(Debug, Clone, PartialEq)]
struct Mode {
    label: String,
    /// Service rate `μ(s)`; zero in inactive modes.
    service_rate: f64,
    /// Power draw `pow(s)` while occupying the mode (watts).
    power: f64,
}

/// The service provider: the paper's quadruple `(χ, μ(s), pow(s),
/// ene(s_i, s_j))` over a finite mode set.
///
/// Modes with `μ(s) > 0` are *active* (they can serve requests); modes with
/// `μ(s) = 0` are *inactive*. `χ[(i, j)]` is the switching *speed* from
/// mode `i` to mode `j` (the reciprocal of the average switching time);
/// a zero entry means the direct switch is impossible. Self-switches are
/// conceptually instantaneous (`χ[(s, s)] = ∞`) and are therefore not
/// stored.
///
/// # Examples
///
/// ```
/// use dpm_core::SpModel;
///
/// # fn main() -> Result<(), dpm_core::DpmError> {
/// let sp = SpModel::dac99_server()?;
/// assert_eq!(sp.n_modes(), 3);
/// assert_eq!(sp.label(0), "active");
/// assert!(sp.is_active(0));
/// assert!(!sp.is_active(2));
/// // Paper Eqn. (4.1)(a): switching active -> sleeping takes 0.2 s.
/// assert!((1.0 / sp.switch_rate(0, 2) - 0.2).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpModel {
    modes: Vec<Mode>,
    /// Switching rates `χ`; diagonal entries are zero placeholders.
    switch_rate: DMatrix,
    /// Switching energies `ene`; diagonal entries are zero.
    switch_energy: DMatrix,
}

impl SpModel {
    /// Starts building a provider model.
    #[must_use]
    pub fn builder() -> SpModelBuilder {
        SpModelBuilder::new()
    }

    /// The three-mode server of the paper's Section V: modes
    /// *active* (μ = 1/1.5, 40 W), *waiting* (15 W) and *sleeping*
    /// (0.1 W), with the switching-time matrix of Eqn. (4.1)(a) and the
    /// switching-energy matrix of Eqn. (4.1)(b).
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature is fallible because it runs
    /// the ordinary builder validation.
    pub fn dac99_server() -> Result<Self, DpmError> {
        let mut b = SpModel::builder();
        b.mode("active", 1.0 / 1.5, 40.0);
        b.mode("waiting", 0.0, 15.0);
        b.mode("sleeping", 0.0, 0.1);
        // Eqn. (4.1)(a): average switching times (seconds).
        b.switch_time(0, 1, 0.1)?.energy(0, 1, 0.2)?;
        b.switch_time(0, 2, 0.2)?.energy(0, 2, 0.5)?;
        b.switch_time(1, 0, 0.5)?.energy(1, 0, 1.0)?;
        b.switch_time(1, 2, 0.1)?.energy(1, 2, 0.1)?;
        b.switch_time(2, 0, 1.1)?.energy(2, 0, 11.0)?;
        b.switch_time(2, 1, 0.5)?.energy(2, 1, 25.0)?;
        b.build()
    }

    /// A dynamic-voltage-scaling-style server with **two active modes**
    /// (the paper's general model: "the SP has more than one working mode,
    /// therefore it can service the requests with more than one service
    /// speed"): *fast* (μ = 1, 50 W), *slow* (μ = 0.4, 18 W) and *sleep*
    /// (0.2 W).
    ///
    /// With two active speeds the action constraint (3) — no switch to a
    /// slower active mode at a full-queue transfer — becomes non-vacuous,
    /// and the optimizer trades speeds by load.
    ///
    /// # Errors
    ///
    /// Never fails in practice (builder validation only).
    pub fn dvs_server() -> Result<Self, DpmError> {
        let mut b = SpModel::builder();
        b.mode("fast", 1.0, 50.0);
        b.mode("slow", 0.4, 18.0);
        b.mode("sleep", 0.0, 0.2);
        b.switch_time(0, 1, 0.05)?.energy(0, 1, 0.1)?;
        b.switch_time(0, 2, 0.2)?.energy(0, 2, 0.6)?;
        b.switch_time(1, 0, 0.05)?.energy(1, 0, 0.2)?;
        b.switch_time(1, 2, 0.15)?.energy(1, 2, 0.3)?;
        b.switch_time(2, 0, 1.0)?.energy(2, 0, 9.0)?;
        b.switch_time(2, 1, 0.8)?.energy(2, 1, 6.0)?;
        b.build()
    }

    /// A four-mode disk-drive-style device (active / idle / standby /
    /// sleep) with one active mode, used by the `disk_drive` example.
    ///
    /// Parameters are in the style of published disk power specifications:
    /// deeper modes save more power but wake more slowly and at higher
    /// energy.
    ///
    /// # Errors
    ///
    /// Never fails in practice (builder validation only).
    pub fn disk_drive() -> Result<Self, DpmError> {
        let mut b = SpModel::builder();
        b.mode("active", 1.0 / 0.008, 2.3); // ~8 ms per request, 2.3 W
        b.mode("idle", 0.0, 0.9);
        b.mode("standby", 0.0, 0.35);
        b.mode("sleep", 0.0, 0.13);
        b.switch_time(0, 1, 0.001)?.energy(0, 1, 0.001)?;
        b.switch_time(0, 2, 0.3)?.energy(0, 2, 0.2)?;
        b.switch_time(0, 3, 0.8)?.energy(0, 3, 0.5)?;
        b.switch_time(1, 0, 0.004)?.energy(1, 0, 0.004)?;
        b.switch_time(1, 2, 0.25)?.energy(1, 2, 0.15)?;
        b.switch_time(1, 3, 0.7)?.energy(1, 3, 0.45)?;
        b.switch_time(2, 0, 1.2)?.energy(2, 0, 3.0)?;
        b.switch_time(2, 1, 1.0)?.energy(2, 1, 2.5)?;
        b.switch_time(2, 3, 0.3)?.energy(2, 3, 0.1)?;
        b.switch_time(3, 0, 2.8)?.energy(3, 0, 7.0)?;
        b.switch_time(3, 1, 2.5)?.energy(3, 1, 6.0)?;
        b.switch_time(3, 2, 1.5)?.energy(3, 2, 3.5)?;
        b.build()
    }

    /// Number of power modes `S`.
    #[inline]
    #[must_use]
    pub fn n_modes(&self) -> usize {
        self.modes.len()
    }

    /// Label of mode `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn label(&self, s: usize) -> &str {
        &self.modes[s].label
    }

    /// Service rate `μ(s)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    #[must_use]
    pub fn service_rate(&self, s: usize) -> f64 {
        self.modes[s].service_rate
    }

    /// Power draw `pow(s)` in watts.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[inline]
    #[must_use]
    pub fn power(&self, s: usize) -> f64 {
        self.modes[s].power
    }

    /// Returns `true` if mode `s` can serve requests (`μ(s) > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn is_active(&self, s: usize) -> bool {
        self.modes[s].service_rate > 0.0
    }

    /// Indices of the active modes, ascending.
    #[must_use]
    pub fn active_modes(&self) -> Vec<usize> {
        (0..self.n_modes()).filter(|&s| self.is_active(s)).collect()
    }

    /// Indices of the inactive modes, ascending.
    #[must_use]
    pub fn inactive_modes(&self) -> Vec<usize> {
        (0..self.n_modes())
            .filter(|&s| !self.is_active(s))
            .collect()
    }

    /// Switching rate `χ(from, to)`; zero when the direct switch is
    /// impossible, and zero (by convention — conceptually infinite) on the
    /// diagonal.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    #[must_use]
    pub fn switch_rate(&self, from: usize, to: usize) -> f64 {
        self.switch_rate[(from, to)]
    }

    /// Switching energy `ene(from, to)` in joules.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    #[must_use]
    pub fn switch_energy(&self, from: usize, to: usize) -> f64 {
        self.switch_energy[(from, to)]
    }

    /// Returns `true` if the direct switch `from → to` exists (`χ > 0` or
    /// `from == to`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    #[must_use]
    pub fn can_switch(&self, from: usize, to: usize) -> bool {
        from == to || self.switch_rate[(from, to)] > 0.0
    }

    /// Wake-up time of mode `s`: the smallest average switching time from
    /// `s` into any *active* mode (`0` if `s` is itself active, infinite if
    /// no active mode is reachable directly). Used by the paper's action
    /// constraint (2).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn wakeup_time(&self, s: usize) -> f64 {
        if self.is_active(s) {
            return 0.0;
        }
        self.active_modes()
            .iter()
            .filter(|&&a| self.switch_rate[(s, a)] > 0.0)
            .map(|&a| 1.0 / self.switch_rate[(s, a)])
            .fold(f64::INFINITY, f64::min)
    }

    /// The fastest exit rate anywhere in the model (used to scale the
    /// instantaneous-self-switch surrogate rate).
    #[must_use]
    pub fn max_rate(&self) -> f64 {
        let switching = self.switch_rate.max_abs();
        let serving = self
            .modes
            .iter()
            .map(|m| m.service_rate)
            .fold(0.0, f64::max);
        switching.max(serving)
    }
}

impl fmt::Display for SpModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SpModel ({} modes)", self.n_modes())?;
        for (i, m) in self.modes.iter().enumerate() {
            writeln!(
                f,
                "  {i}: {} (mu = {}, pow = {} W)",
                m.label, m.service_rate, m.power
            )?;
        }
        Ok(())
    }
}

/// Builder for [`SpModel`].
#[derive(Debug, Clone, Default)]
pub struct SpModelBuilder {
    modes: Vec<Mode>,
    switches: Vec<(usize, usize, f64)>,
    energies: Vec<(usize, usize, f64)>,
    last_pair: Option<(usize, usize)>,
}

impl SpModelBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        SpModelBuilder::default()
    }

    /// Adds a power mode with service rate `mu` and power draw `power`.
    /// Returns the new mode's index.
    pub fn mode(&mut self, label: impl Into<String>, mu: f64, power: f64) -> usize {
        self.modes.push(Mode {
            label: label.into(),
            service_rate: mu,
            power,
        });
        self.modes.len() - 1
    }

    /// Declares the switch `from → to` with the given average switching
    /// *time* (seconds); the stored rate is its reciprocal.
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidModel`] for out-of-range modes,
    /// self-switches, or a non-positive time.
    pub fn switch_time(
        &mut self,
        from: usize,
        to: usize,
        time: f64,
    ) -> Result<&mut Self, DpmError> {
        if !(time > 0.0 && time.is_finite()) {
            return Err(DpmError::InvalidModel {
                reason: format!("switching time {time} from {from} to {to} must be positive"),
            });
        }
        self.switch_rate(from, to, 1.0 / time)
    }

    /// Declares the switch `from → to` with the given switching *rate*.
    ///
    /// # Errors
    ///
    /// As [`SpModelBuilder::switch_time`].
    pub fn switch_rate(
        &mut self,
        from: usize,
        to: usize,
        rate: f64,
    ) -> Result<&mut Self, DpmError> {
        if from >= self.modes.len() || to >= self.modes.len() {
            return Err(DpmError::InvalidModel {
                reason: format!(
                    "switch ({from}, {to}) out of range for {} declared modes",
                    self.modes.len()
                ),
            });
        }
        if from == to {
            return Err(DpmError::InvalidModel {
                reason: format!("self-switch at mode {from}: self-switches are instantaneous"),
            });
        }
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(DpmError::InvalidModel {
                reason: format!("switching rate {rate} from {from} to {to} must be positive"),
            });
        }
        self.switches.push((from, to, rate));
        self.last_pair = Some((from, to));
        Ok(self)
    }

    /// Attaches the switching energy (joules) to the most recently declared
    /// switch when called as `b.switch_time(i, j, t)?.energy(i, j, e)?`, or
    /// to any explicit pair.
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidModel`] for a negative or non-finite
    /// energy or a self pair.
    pub fn energy(&mut self, from: usize, to: usize, energy: f64) -> Result<&mut Self, DpmError> {
        if from == to {
            return Err(DpmError::InvalidModel {
                reason: format!("self-switch energy at mode {from}"),
            });
        }
        if !(energy >= 0.0 && energy.is_finite()) {
            return Err(DpmError::InvalidModel {
                reason: format!("switching energy {energy} must be finite and >= 0"),
            });
        }
        self.energies.push((from, to, energy));
        Ok(self)
    }

    /// Finalizes the model.
    ///
    /// # Errors
    ///
    /// Returns [`DpmError::InvalidModel`] if there is no active mode, a
    /// mode index is out of range, a rate/power is invalid, or an energy
    /// refers to an undeclared switch.
    pub fn build(self) -> Result<SpModel, DpmError> {
        let n = self.modes.len();
        if n == 0 {
            return Err(DpmError::InvalidModel {
                reason: "provider has no modes".to_owned(),
            });
        }
        for (i, m) in self.modes.iter().enumerate() {
            if !(m.service_rate >= 0.0 && m.service_rate.is_finite()) {
                return Err(DpmError::InvalidModel {
                    reason: format!("mode {i} has invalid service rate {}", m.service_rate),
                });
            }
            if !(m.power >= 0.0 && m.power.is_finite()) {
                return Err(DpmError::InvalidModel {
                    reason: format!("mode {i} has invalid power {}", m.power),
                });
            }
        }
        if !self.modes.iter().any(|m| m.service_rate > 0.0) {
            return Err(DpmError::InvalidModel {
                reason: "provider needs at least one active mode".to_owned(),
            });
        }
        let mut switch_rate = DMatrix::zeros(n, n);
        for (from, to, rate) in self.switches {
            if from >= n || to >= n {
                return Err(DpmError::InvalidModel {
                    reason: format!("switch ({from}, {to}) out of range for {n} modes"),
                });
            }
            switch_rate[(from, to)] = rate;
        }
        let mut switch_energy = DMatrix::zeros(n, n);
        for (from, to, energy) in self.energies {
            if from >= n || to >= n {
                return Err(DpmError::InvalidModel {
                    reason: format!("energy ({from}, {to}) out of range for {n} modes"),
                });
            }
            // dpm-lint: allow(float_eq, reason = "exact structural-zero test: a 0.0 switch rate means the transition is absent from the model")
            if switch_rate[(from, to)] == 0.0 {
                return Err(DpmError::InvalidModel {
                    reason: format!("energy declared for undeclared switch ({from}, {to})"),
                });
            }
            switch_energy[(from, to)] = energy;
        }
        Ok(SpModel {
            modes: self.modes,
            switch_rate,
            switch_energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac99_matches_paper_parameters() {
        let sp = SpModel::dac99_server().unwrap();
        assert_eq!(sp.n_modes(), 3);
        assert!((sp.service_rate(0) - 1.0 / 1.5).abs() < 1e-12);
        assert_eq!(sp.power(0), 40.0);
        assert_eq!(sp.power(1), 15.0);
        assert_eq!(sp.power(2), 0.1);
        assert!((1.0 / sp.switch_rate(2, 0) - 1.1).abs() < 1e-12);
        assert_eq!(sp.switch_energy(2, 0), 11.0);
        assert_eq!(sp.switch_energy(2, 1), 25.0);
        assert_eq!(sp.active_modes(), vec![0]);
        assert_eq!(sp.inactive_modes(), vec![1, 2]);
    }

    #[test]
    fn wakeup_times_follow_switch_rates() {
        let sp = SpModel::dac99_server().unwrap();
        assert_eq!(sp.wakeup_time(0), 0.0);
        assert!((sp.wakeup_time(1) - 0.5).abs() < 1e-12);
        assert!((sp.wakeup_time(2) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn can_switch_includes_self() {
        let sp = SpModel::dac99_server().unwrap();
        assert!(sp.can_switch(0, 0));
        assert!(sp.can_switch(0, 2));
    }

    #[test]
    fn missing_switch_is_impossible() {
        let mut b = SpModel::builder();
        b.mode("on", 1.0, 5.0);
        b.mode("off", 0.0, 0.0);
        b.switch_time(0, 1, 0.1).unwrap();
        // No way back on declared.
        let sp = b.build().unwrap();
        assert!(!sp.can_switch(1, 0));
        assert!(sp.wakeup_time(1).is_infinite());
    }

    #[test]
    fn builder_rejections() {
        let mut b = SpModel::builder();
        b.mode("on", 1.0, 5.0);
        assert!(b.switch_time(0, 0, 0.1).is_err());
        assert!(b.switch_time(0, 1, 0.1).is_err()); // out of range
        assert!(b.switch_time(0, 0, -1.0).is_err());
        assert!(b.energy(0, 0, 1.0).is_err());

        let mut b = SpModel::builder();
        b.mode("off", 0.0, 0.0);
        assert!(b.build().is_err()); // no active mode

        assert!(SpModel::builder().build().is_err()); // no modes

        let mut b = SpModel::builder();
        b.mode("on", 1.0, 5.0);
        b.mode("off", 0.0, 0.0);
        b.energy(0, 1, 1.0).unwrap();
        assert!(b.build().is_err()); // energy without declared switch
    }

    #[test]
    fn builder_rejects_bad_mode_parameters() {
        let mut b = SpModel::builder();
        b.mode("bad", -1.0, 5.0);
        assert!(b.build().is_err());
        let mut b = SpModel::builder();
        b.mode("bad", 1.0, f64::NAN);
        assert!(b.build().is_err());
    }

    #[test]
    fn disk_drive_preset_is_valid() {
        let sp = SpModel::disk_drive().unwrap();
        assert_eq!(sp.n_modes(), 4);
        assert_eq!(sp.active_modes(), vec![0]);
        // Deeper modes draw less power...
        assert!(sp.power(1) > sp.power(2));
        assert!(sp.power(2) > sp.power(3));
        // ...but wake more slowly.
        assert!(sp.wakeup_time(1) < sp.wakeup_time(2));
        assert!(sp.wakeup_time(2) < sp.wakeup_time(3));
    }

    #[test]
    fn max_rate_covers_service_and_switching() {
        let sp = SpModel::disk_drive().unwrap();
        assert!((sp.max_rate() - 1.0 / 0.001).abs() < 1e-9);
    }

    #[test]
    fn display_lists_modes() {
        let text = SpModel::dac99_server().unwrap().to_string();
        assert!(text.contains("active"));
        assert!(text.contains("sleeping"));
    }
}
