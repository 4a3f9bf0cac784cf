//! One `mc` run's configuration request: the VN choice, the scenario,
//! its dimensions and symmetry — everything that decides the
//! [`McConfig`] a run checks, and nothing that only picks an explorer
//! (`--parallel`, `--shard-procs`, spill, checkpoints) or an output
//! mode (`--machine`, `--parameterized`).
//!
//! Every front-end goes through this one type. `vnet mc` and its
//! `__shard-worker` processes parse their argv with
//! [`McRequest::from_args`]; shard workers, campaign children and the
//! daemon's process dispatch are handed the argv
//! [`McRequest::to_args`] renders; and every path turns a request into
//! a config with [`McRequest::config`]. So no two front-ends can check
//! one (protocol, VN map, scenario) cell under different configs, and a
//! shard worker's checkpoint fingerprint is its supervisor's.

use crate::config::{InjectionBudget, McConfig, VnMap};
use vnet_core::{analyze, VnOutcome};
use vnet_protocol::ProtocolSpec;

/// VN-mapping selection for an `mc` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VnChoice {
    /// The analyzer's minimal mapping (one VN per message for Class 2).
    #[default]
    Minimal,
    /// Everything on one VN (`--single-vn`).
    Single,
    /// One VN per message name (`--unique-vns`).
    Unique,
}

/// What decides an `mc` run's [`McConfig`]. The default is the Table I
/// cell: the Figure-3 scenario under the analyzer's minimal VN map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct McRequest {
    /// The VN map to check under.
    pub vns: VnChoice,
    /// Explore the free-running general scenario (`--general`: uniform
    /// per-cache budget, unordered ICN) instead of the directed
    /// Figure-3 script.
    pub general: bool,
    /// `--caches`: resizes the general scenario.
    pub caches: Option<usize>,
    /// `--addrs`: resizes the general scenario.
    pub addrs: Option<usize>,
    /// `--dirs`: resizes the general scenario.
    pub dirs: Option<usize>,
    /// `--per-cache`: the general scenario's per-cache injection budget.
    pub per_cache: Option<u8>,
    /// Fold states equivalent under cache × address permutations
    /// (`--symmetry`; requires the general scenario).
    pub symmetry: bool,
}

impl McRequest {
    /// The general scenario under symmetry reduction, with this
    /// request's VN choice and dimensions.
    pub fn with_symmetry(self) -> Self {
        McRequest {
            general: true,
            symmetry: true,
            ..self
        }
    }

    /// Parses the configuration flags out of an `mc` argv, ignoring
    /// every other flag. `--unique-vns` wins over `--single-vn`.
    pub fn from_args(args: &[String]) -> Result<McRequest, String> {
        let has = |name: &str| args.iter().any(|a| a == name);
        let dim = |name: &str| -> Result<Option<usize>, String> {
            let Some(i) = args.iter().position(|a| a == name) else {
                return Ok(None);
            };
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("{name} needs a value"))?;
            v.parse()
                .map(Some)
                .map_err(|_| format!("bad value for {name}: `{v}`"))
        };
        let (caches, addrs, dirs, per_cache) = (
            dim("--caches")?,
            dim("--addrs")?,
            dim("--dirs")?,
            dim("--per-cache")?,
        );
        let per_cache = per_cache
            .map(|n| u8::try_from(n).map_err(|_| "--per-cache must fit in a byte".to_string()))
            .transpose()?;
        let vns = if has("--unique-vns") {
            VnChoice::Unique
        } else if has("--single-vn") {
            VnChoice::Single
        } else {
            VnChoice::Minimal
        };
        Ok(McRequest {
            vns,
            general: has("--general"),
            caches,
            addrs,
            dirs,
            per_cache,
            symmetry: has("--symmetry"),
        })
    }

    /// The flags [`McRequest::from_args`] parses back to this request.
    pub fn to_args(&self) -> Vec<String> {
        let mut out = Vec::new();
        match self.vns {
            VnChoice::Minimal => {}
            VnChoice::Single => out.push("--single-vn".to_string()),
            VnChoice::Unique => out.push("--unique-vns".to_string()),
        }
        if self.general {
            out.push("--general".to_string());
        }
        if self.symmetry {
            out.push("--symmetry".to_string());
        }
        for (flag, v) in [
            ("--caches", self.caches),
            ("--addrs", self.addrs),
            ("--dirs", self.dirs),
            ("--per-cache", self.per_cache.map(usize::from)),
        ] {
            if let Some(n) = v {
                out.push(flag.to_string());
                out.push(n.to_string());
            }
        }
        out
    }

    /// The config this request checks `spec` under, validated fail-closed
    /// (codec limits, and the symmetry preconditions: `--symmetry`
    /// without `--general` is refused, because the Figure-3 script names
    /// specific caches). The flag is `true` when the analyzer found
    /// `spec` to be Class 2 and the minimal choice fell back to one VN
    /// per message.
    pub fn config(&self, spec: &ProtocolSpec) -> Result<(McConfig, bool), String> {
        let resized = self.caches.is_some()
            || self.addrs.is_some()
            || self.dirs.is_some()
            || self.per_cache.is_some();
        if resized && !self.general {
            // The directed Figure-3 script is written for the stock
            // 3/2/2 dimensions.
            return Err(
                "--caches/--addrs/--dirs/--per-cache resize the general scenario; add --general"
                    .into(),
            );
        }
        let (cfg, class2) = self.build(spec);
        cfg.validate_for_run()?;
        Ok((cfg, class2))
    }

    /// [`McRequest::config`] without the checks, for callers whose
    /// explorer validates the config before it touches a state.
    pub(crate) fn build(&self, spec: &ProtocolSpec) -> (McConfig, bool) {
        let n = spec.messages().len();
        let (vns, class2) = match self.vns {
            VnChoice::Single => (VnMap::single(n), false),
            VnChoice::Unique => (VnMap::one_per_message(n), false),
            VnChoice::Minimal => match analyze(spec).outcome() {
                VnOutcome::Assigned { assignment, .. } => {
                    (VnMap::from_assignment(assignment, n), false)
                }
                VnOutcome::Class2(_) => (VnMap::one_per_message(n), true),
            },
        };
        let scenario = if self.general {
            McConfig::general(spec)
        } else {
            McConfig::figure3(spec)
        };
        let mut cfg = scenario.with_vns(vns);
        cfg.n_caches = self.caches.unwrap_or(cfg.n_caches);
        cfg.n_addrs = self.addrs.unwrap_or(cfg.n_addrs);
        cfg.n_dirs = self.dirs.unwrap_or(cfg.n_dirs);
        if let Some(b) = self.per_cache {
            cfg = cfg.with_budget(InjectionBudget::PerCache(b));
        }
        cfg.symmetry = self.symmetry;
        (cfg, class2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_protocol::protocols;

    fn argv(flags: &[&str]) -> Vec<String> {
        ["mc", "CHI"]
            .iter()
            .chain(flags)
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn bad_flags_fail_closed_with_the_cli_messages() -> Result<(), String> {
        let err = |flags: &[&str]| match McRequest::from_args(&argv(flags)) {
            Ok(r) => r.config(&protocols::chi()).err(),
            Err(e) => Some(e),
        };
        assert_eq!(
            err(&["--caches", "x"]).as_deref(),
            Some("bad value for --caches: `x`")
        );
        assert_eq!(err(&["--dirs"]).as_deref(), Some("--dirs needs a value"));
        assert_eq!(
            err(&["--general", "--per-cache", "256"]).as_deref(),
            Some("--per-cache must fit in a byte")
        );
        assert!(err(&["--caches", "4"]).is_some_and(|e| e.contains("add --general")));
        assert!(err(&["--symmetry"]).is_some_and(|e| e.contains("per-cache budget")));
        assert!(err(&["--general", "--caches", "9"]).is_some_and(|e| e.contains("n_caches")));
        assert_eq!(err(&["--general", "--caches", "4", "--symmetry"]), None);
        Ok(())
    }

    #[test]
    fn minimal_choice_reports_class2_fallback() -> Result<(), String> {
        let spec = protocols::chi();
        let (cfg, class2) = McRequest::default().config(&spec)?;
        assert!(!class2);
        assert_eq!(cfg.vns.n_vns(), 2);
        let (cfg, _) = McRequest {
            vns: VnChoice::Unique,
            ..McRequest::default()
        }
        .config(&spec)?;
        assert_eq!(cfg.vns.n_vns(), spec.messages().len());
        let blocking = protocols::msi_blocking_cache();
        let (cfg, class2) = McRequest::default().config(&blocking)?;
        assert!(class2);
        assert_eq!(cfg.vns, VnMap::one_per_message(blocking.messages().len()));
        Ok(())
    }
}
