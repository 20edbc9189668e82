//! The baseline schemes behind the uniform
//! [`ReplacementScheme`] API, plus [`builtins`] — the registry of all
//! five built-in schemes (SR and SR-SC from [`wsn_coverage`], AR, VF and
//! SMART from this crate).
//!
//! This crate is the lowest point in the dependency graph that can see
//! every built-in scheme, which is why the full registry is assembled
//! here rather than in `wsn_coverage`.

use wsn_coverage::scheme::{
    detach_network, DriveMode, NetworkSpec, ReplacementScheme, SchemeRegistry, SchemeReport, Sr,
    SrSc, Unsupported,
};
use wsn_grid::GridNetwork;
use wsn_simcore::TraceLog;

use crate::ar::{ArConfig, ArRecovery};
use crate::smart::{self, SmartConfig};
use crate::vf::{self, VfConfig};

/// The registry of the five built-in schemes, in stable order:
/// `sr`, `sr-sc`, `ar`, `vf`, `smart` — all with default
/// configurations. Register plugins on top, or build a custom registry
/// from individually configured schemes:
///
/// ```
/// use wsn_baselines::builtins;
///
/// let registry = builtins();
/// let ids: Vec<String> = registry.ids().iter().map(|id| id.to_string()).collect();
/// assert_eq!(ids, ["sr", "sr-sc", "ar", "vf", "smart"]);
/// assert_eq!(registry.get("ar").unwrap().label(), "AR");
/// ```
pub fn builtins() -> SchemeRegistry {
    let mut registry = SchemeRegistry::new();
    registry
        .register(Sr::new())
        .expect("built-in ids are valid and unique");
    registry
        .register(SrSc::new())
        .expect("built-in ids are valid and unique");
    registry
        .register(Ar::new())
        .expect("built-in ids are valid and unique");
    registry
        .register(Vf::new())
        .expect("built-in ids are valid and unique");
    registry
        .register(Smart::new())
        .expect("built-in ids are valid and unique");
    registry
}

/// **AR** — the unsynchronized cascading baseline ([`crate::ar`]) — as a
/// registrable scheme. Configure via [`Ar::builder`].
#[derive(Debug, Clone, Default)]
pub struct Ar {
    config: ArConfig,
}

impl Ar {
    /// AR with the default configuration.
    pub fn new() -> Ar {
        Ar::default()
    }

    /// Starts a builder over the default configuration.
    pub fn builder() -> ArBuilder {
        ArBuilder {
            config: ArConfig::default(),
        }
    }

    /// AR over an explicit config (`seed` is overridden per run).
    pub fn from_config(config: ArConfig) -> Ar {
        Ar { config }
    }

    /// The configuration this scheme runs with.
    pub fn config(&self) -> &ArConfig {
        &self.config
    }

    /// `ArRecovery::new` silently clamps a zero round cap; the trait
    /// path surfaces it as an error instead of rewriting the config.
    fn check_config(&self) -> Result<(), Unsupported> {
        if self.config.max_rounds == 0 {
            return Err(Unsupported::new(self.id(), "max_rounds must be at least 1"));
        }
        Ok(())
    }
}

/// Builder for [`Ar`].
#[derive(Debug, Clone)]
pub struct ArBuilder {
    config: ArConfig,
}

impl ArBuilder {
    /// Sets the head-election policy.
    #[must_use]
    pub fn election(mut self, election: wsn_grid::HeadElection) -> Self {
        self.config.election = election;
        self
    }

    /// Sets the spare-selection policy.
    #[must_use]
    pub fn spare_selection(mut self, selection: wsn_coverage::SpareSelection) -> Self {
        self.config.spare_selection = selection;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.config.max_rounds = max_rounds;
        self
    }

    /// Sets the cascade TTL in hops (0 = `m·n` at run time).
    #[must_use]
    pub fn ttl(mut self, ttl: usize) -> Self {
        self.config.ttl = ttl;
        self
    }

    /// Enables or disables tracing.
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.config.trace = trace;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Ar {
        Ar {
            config: self.config,
        }
    }
}

impl ReplacementScheme for Ar {
    fn id(&self) -> &str {
        "ar"
    }

    fn label(&self) -> &str {
        "AR"
    }

    fn supports(&self, _spec: &NetworkSpec) -> Result<(), Unsupported> {
        // AR needs no global structure: any region with a 4-neighborhood
        // works (cascades simply fail where the region starves them).
        // Config validity is part of the supports() contract (matrices
        // validate up front), so the round cap is checked here too.
        self.check_config()
    }

    fn supports_event_driven(&self) -> bool {
        true
    }

    fn run(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<SchemeReport, Unsupported> {
        self.check_config()?;
        let owned = detach_network(net);
        let mut config = self.config.clone();
        config.seed = seed;
        let mut recovery = match mode {
            DriveMode::EventDriven { net: spec } => ArRecovery::new_event(owned, config, spec),
            _ => ArRecovery::new(owned, config),
        }
        .expect("round cap pre-validated");
        let report = recovery.run();
        *net = recovery.into_network();
        Ok(report)
    }

    fn run_traced(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        self.check_config()?;
        let owned = detach_network(net);
        let mut config = self.config.clone().with_trace(true);
        config.seed = seed;
        let mut recovery = match mode {
            DriveMode::EventDriven { net: spec } => ArRecovery::new_event(owned, config, spec),
            _ => ArRecovery::new(owned, config),
        }
        .expect("round cap pre-validated");
        let report = recovery.run();
        let trace = recovery.trace().clone();
        *net = recovery.into_network();
        Ok((report, trace))
    }
}

/// **VF** — the virtual-force baseline ([`crate::vf`]) — as a
/// registrable scheme. Configure via [`Vf::builder`].
#[derive(Debug, Clone, Default)]
pub struct Vf {
    config: VfConfig,
}

impl Vf {
    /// VF with the default configuration.
    pub fn new() -> Vf {
        Vf::default()
    }

    /// Starts a builder over the default configuration.
    pub fn builder() -> VfBuilder {
        VfBuilder {
            config: VfConfig::default(),
        }
    }

    /// VF over an explicit config (`seed` is overridden per run).
    pub fn from_config(config: VfConfig) -> Vf {
        Vf { config }
    }

    /// The configuration this scheme runs with.
    pub fn config(&self) -> &VfConfig {
        &self.config
    }
}

/// Builder for [`Vf`].
#[derive(Debug, Clone)]
pub struct VfBuilder {
    config: VfConfig,
}

impl VfBuilder {
    /// Sets the preferred inter-node spacing (multiple of the cell side).
    #[must_use]
    pub fn spacing_factor(mut self, factor: f64) -> Self {
        self.config.spacing_factor = factor;
        self
    }

    /// Sets the per-round step bound (multiple of the cell side).
    #[must_use]
    pub fn step_factor(mut self, factor: f64) -> Self {
        self.config.step_factor = factor;
        self
    }

    /// Sets the jitter threshold (multiple of the cell side).
    #[must_use]
    pub fn min_step_factor(mut self, factor: f64) -> Self {
        self.config.min_step_factor = factor;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.config.max_rounds = max_rounds;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Vf {
        Vf {
            config: self.config,
        }
    }
}

impl ReplacementScheme for Vf {
    fn id(&self) -> &str {
        "vf"
    }

    fn label(&self) -> &str {
        "VF"
    }

    fn supports(&self, _spec: &NetworkSpec) -> Result<(), Unsupported> {
        // Forces are geometric; any region works (moves into disabled
        // cells are rejected by the network itself).
        Ok(())
    }

    fn run(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<SchemeReport, Unsupported> {
        if mode != DriveMode::Classic {
            return Err(Unsupported::new(
                self.id(),
                "VF supports only the classic driver (the force field is global and recomputed every round)",
            ));
        }
        let mut config = self.config.clone();
        config.seed = seed;
        Ok(vf::run(net, &config))
    }

    fn run_traced(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        if mode != DriveMode::Classic {
            return Err(Unsupported::new(
                self.id(),
                "VF supports only the classic driver (the force field is global and recomputed every round)",
            ));
        }
        let mut config = self.config.clone();
        config.seed = seed;
        Ok(vf::run_traced(net, &config))
    }
}

/// **SMART** — the scan-balancing baseline ([`crate::smart`]) — as a
/// registrable scheme.
#[derive(Debug, Clone, Default)]
pub struct Smart {
    config: SmartConfig,
}

impl Smart {
    /// SMART with the default configuration.
    pub fn new() -> Smart {
        Smart::default()
    }

    /// SMART over an explicit config (`seed` is overridden per run).
    pub fn from_config(config: SmartConfig) -> Smart {
        Smart { config }
    }

    /// The configuration this scheme runs with.
    pub fn config(&self) -> &SmartConfig {
        &self.config
    }
}

impl ReplacementScheme for Smart {
    fn id(&self) -> &str {
        "smart"
    }

    fn label(&self) -> &str {
        "SMART"
    }

    fn supports(&self, _spec: &NetworkSpec) -> Result<(), Unsupported> {
        // Scan lines split at obstacles into independent runs; any
        // region works.
        Ok(())
    }

    fn run(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<SchemeReport, Unsupported> {
        if mode != DriveMode::Classic {
            return Err(Unsupported::new(
                self.id(),
                "SMART supports only the classic driver (scans are one-shot and global)",
            ));
        }
        let mut config = self.config.clone();
        config.seed = seed;
        Ok(smart::run(net, &config))
    }

    fn run_traced(
        &self,
        net: &mut GridNetwork,
        seed: u64,
        mode: DriveMode,
    ) -> Result<(SchemeReport, TraceLog), Unsupported> {
        if mode != DriveMode::Classic {
            return Err(Unsupported::new(
                self.id(),
                "SMART supports only the classic driver (scans are one-shot and global)",
            ));
        }
        let mut config = self.config.clone();
        config.seed = seed;
        Ok(smart::run_traced(net, &config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_grid::{deploy, GridCoord, GridSystem, RegionMask};
    use wsn_simcore::SimRng;

    fn holed_network(seed: u64) -> GridNetwork {
        let sys = GridSystem::new(6, 6, 4.4721).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        let pos = deploy::with_holes(&sys, &[GridCoord::new(2, 2)], 2, &mut rng);
        GridNetwork::new(sys, &pos)
    }

    #[test]
    fn builtins_register_all_five_in_stable_order() {
        let reg = builtins();
        assert_eq!(reg.len(), 5);
        let ids: Vec<String> = reg.ids().iter().map(ToString::to_string).collect();
        assert_eq!(ids, ["sr", "sr-sc", "ar", "vf", "smart"]);
        let labels: Vec<&str> = reg.iter().map(|s| s.label()).collect();
        assert_eq!(labels, ["SR", "SR-SC", "AR", "VF", "SMART"]);
    }

    #[test]
    fn every_builtin_drives_a_single_hole_in_place() {
        for scheme in builtins().iter() {
            let mut net = holed_network(11);
            scheme
                .supports(&NetworkSpec::of(&net))
                .unwrap_or_else(|e| panic!("{e}"));
            let before = net.stats();
            let report = scheme.run(&mut net, 11, DriveMode::Classic).unwrap();
            assert_eq!(report.initial_stats, before, "{}", scheme.id());
            assert_eq!(report.final_stats, net.stats(), "{}", scheme.id());
            assert!(report.metrics.moves >= 1, "{}", scheme.id());
            // VF is best-effort (density gradients, no guarantee — the
            // paper's criticism); every replacement scheme must close
            // the hole.
            if scheme.id() != "vf" {
                assert!(report.fully_covered, "{}: {report}", scheme.id());
            }
            net.debug_invariants();
        }
    }

    #[test]
    fn ar_scheme_matches_direct_driver() {
        let ar = Ar::new();
        let mut net = holed_network(5);
        let via_trait = ar.run(&mut net, 5, DriveMode::Classic).unwrap();
        let direct = ArRecovery::new(holed_network(5), ArConfig::default().with_seed(5))
            .unwrap()
            .run();
        assert_eq!(via_trait, direct);
    }

    #[test]
    fn vf_and_smart_reject_non_classic_modes_without_touching_the_network() {
        use wsn_simcore::NetModelSpec;
        let mut net = holed_network(7);
        let before = net.stats();
        for id in ["vf", "smart"] {
            let reg = builtins();
            let scheme = reg.get(id).unwrap();
            assert!(!scheme.supports_event_driven());
            let mode = DriveMode::EventDriven {
                net: NetModelSpec::Ideal,
            };
            let err = scheme.run(&mut net, 7, mode).unwrap_err();
            assert_eq!(err.scheme, id);
            assert_eq!(net.stats(), before, "{id} must not touch the network");
        }
    }

    #[test]
    fn ar_event_driven_matches_direct_event_driver() {
        use wsn_simcore::NetModelSpec;
        let ar = Ar::new();
        assert!(ar.supports_event_driven());
        let mut net = holed_network(5);
        let via_trait = ar
            .run(
                &mut net,
                5,
                DriveMode::EventDriven {
                    net: NetModelSpec::Ideal,
                },
            )
            .unwrap();
        let direct = ArRecovery::new_event(
            holed_network(5),
            ArConfig::default().with_seed(5),
            NetModelSpec::Ideal,
        )
        .unwrap()
        .run();
        assert_eq!(via_trait, direct);
        assert_eq!(via_trait.health, direct.health);
        // And Ideal event runs match classic runs (same weather-free axioms).
        let classic = ar
            .run(&mut holed_network(5), 5, DriveMode::Classic)
            .unwrap();
        assert_eq!(via_trait, classic);
        assert_eq!(via_trait.metrics, classic.metrics);
    }

    #[test]
    fn baselines_support_masked_regions() {
        let spec = NetworkSpec::masked(RegionMask::annulus(8, 8));
        for scheme in builtins().iter() {
            assert!(
                scheme.supports(&spec).is_ok(),
                "{} must support the annulus",
                scheme.id()
            );
        }
    }

    #[test]
    fn builders_fold_config() {
        let ar = Ar::builder()
            .election(wsn_grid::HeadElection::Random)
            .spare_selection(wsn_coverage::SpareSelection::FirstId)
            .max_rounds(42)
            .ttl(9)
            .trace(true)
            .build();
        assert_eq!(ar.config().max_rounds, 42);
        assert_eq!(ar.config().ttl, 9);
        assert!(ar.config().trace);
        let vf = Vf::builder()
            .spacing_factor(1.5)
            .step_factor(0.25)
            .min_step_factor(0.01)
            .max_rounds(77)
            .build();
        assert_eq!(vf.config().max_rounds, 77);
        assert_eq!(vf.config().step_factor, 0.25);
        let smart = Smart::from_config(SmartConfig { seed: 3 });
        assert_eq!(smart.config().seed, 3);
        assert_eq!(Ar::from_config(ar.config().clone()).id(), "ar");
        assert_eq!(Vf::from_config(vf.config().clone()).label(), "VF");
    }
}
