//! Scope resolution: bind a parsed [`lyra_lang::ScopeSpec`] to a
//! concrete [`Topology`], producing the candidate switch set and the flow
//! paths the back-end encodes constraints over (§4.3 "Deployment constraints
//! generation").

use lyra_diag::{codes, Code, Diagnostic, Span};
use lyra_lang::{DeployMode, ScopeSpec};

use crate::paths::enumerate_paths;
use crate::{SwitchId, Topology};

/// A scope bound to a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedScope {
    /// Algorithm name.
    pub algorithm: String,
    /// Candidate switches (region ∩ topology), in topology order.
    pub switches: Vec<SwitchId>,
    /// Deployment mode.
    pub deploy: DeployMode,
    /// Flow paths through the scope. For PER-SW scopes each switch is its
    /// own single-hop path; for MULTI-SW scopes these follow the `direct`
    /// specification.
    pub paths: Vec<Vec<SwitchId>>,
}

/// Errors binding a scope to a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeResolutionError {
    /// Problem description.
    pub message: String,
    /// Stable diagnostic code (`LYR0204`..`LYR0207`).
    pub code: Code,
    /// The scope line this error refers to, within the scope source.
    pub span: Option<Span>,
}

impl std::fmt::Display for ScopeResolutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scope resolution error: {}", self.message)
    }
}

impl std::error::Error for ScopeResolutionError {}

impl ScopeResolutionError {
    /// Convert to a structured diagnostic; the span's source id (the scope
    /// file) is attached by the driver.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let d = Diagnostic::error(self.code, self.message.clone());
        match self.span {
            Some(sp) => d.with_anonymous_span(sp),
            None => d,
        }
    }
}

/// Maximum path length (hops) enumerated within a scope.
const MAX_PATH_LEN: usize = 8;

/// Bind `spec` to `topo`.
pub fn resolve_scope(
    topo: &Topology,
    spec: &ScopeSpec,
) -> Result<ResolvedScope, ScopeResolutionError> {
    let names: Vec<&str> = topo.names();
    let matched = spec.resolve(names.iter().copied());
    if matched.is_empty() {
        return Err(ScopeResolutionError {
            message: format!(
                "scope for `{}` matches no switch in the topology",
                spec.algorithm
            ),
            code: codes::SCOPE_EMPTY_REGION,
            span: Some(spec.span),
        });
    }
    let switches: Vec<SwitchId> = matched.iter().map(|n| topo.find(n).unwrap()).collect();
    let paths = match spec.deploy {
        DeployMode::PerSwitch => switches.iter().map(|&s| vec![s]).collect(),
        DeployMode::MultiSwitch => {
            let direct = spec.direct.as_ref().ok_or_else(|| ScopeResolutionError {
                message: format!("MULTI-SW scope for `{}` lacks a direction", spec.algorithm),
                code: codes::SCOPE_SYNTAX,
                span: Some(spec.span),
            })?;
            let lookup = |ns: &[String]| -> Result<Vec<SwitchId>, ScopeResolutionError> {
                ns.iter()
                    .map(|n| {
                        topo.find(n).ok_or_else(|| ScopeResolutionError {
                            message: format!("direction names unknown switch `{n}`"),
                            code: codes::SCOPE_UNKNOWN_SWITCH,
                            span: Some(spec.span),
                        })
                    })
                    .collect()
            };
            let from = lookup(&direct.from)?;
            let to = lookup(&direct.to)?;
            for s in from.iter().chain(&to) {
                if !switches.contains(s) {
                    return Err(ScopeResolutionError {
                        message: format!(
                            "direction switch `{}` is outside the scope region of `{}`",
                            topo.switch(*s).name,
                            spec.algorithm
                        ),
                        code: codes::SCOPE_OUTSIDE_REGION,
                        span: Some(spec.span),
                    });
                }
            }
            let paths = enumerate_paths(topo, &from, &to, &switches, MAX_PATH_LEN);
            if paths.is_empty() {
                return Err(ScopeResolutionError {
                    message: format!(
                        "no flow path exists through the scope of `{}`",
                        spec.algorithm
                    ),
                    code: codes::SCOPE_NO_PATH,
                    span: Some(spec.span),
                });
            }
            paths
        }
    };
    Ok(ResolvedScope {
        algorithm: spec.algorithm.clone(),
        switches,
        deploy: spec.deploy,
        paths,
    })
}

/// Bind `spec` to a *degraded* topology, tolerating direction endpoints
/// that the fault removed. Where [`resolve_scope`] rejects a MULTI-SW
/// direction naming any switch absent from the topology
/// (`SCOPE_UNKNOWN_SWITCH`), a failover recompile must accept the same
/// scope text against a network that just lost switches: dead endpoints
/// are silently dropped from the `from`/`to` lists, and only when *all*
/// ingress or *all* egress endpoints are gone does resolution fail (with
/// the usual no-path error, since no traffic can traverse the scope).
///
/// Scope-region wildcards already tolerate missing switches (they match
/// whatever exists), so PER-SW scopes behave identically under both entry
/// points.
pub fn resolve_scope_degraded(
    topo: &Topology,
    spec: &ScopeSpec,
) -> Result<ResolvedScope, ScopeResolutionError> {
    match spec.deploy {
        DeployMode::PerSwitch => resolve_scope(topo, spec),
        DeployMode::MultiSwitch => {
            let Some(direct) = spec.direct.as_ref() else {
                return resolve_scope(topo, spec); // surfaces SCOPE_SYNTAX
            };
            let keep = |ns: &[String]| -> Vec<String> {
                ns.iter()
                    .filter(|n| topo.find(n).is_some())
                    .cloned()
                    .collect()
            };
            let (from, to) = (keep(&direct.from), keep(&direct.to));
            if from.is_empty() || to.is_empty() {
                return Err(ScopeResolutionError {
                    message: format!(
                        "no flow path exists through the scope of `{}` (all {} endpoints failed)",
                        spec.algorithm,
                        if from.is_empty() { "ingress" } else { "egress" },
                    ),
                    code: codes::SCOPE_NO_PATH,
                    span: Some(spec.span),
                });
            }
            let mut narrowed = spec.clone();
            narrowed.direct = Some(lyra_lang::Direction { from, to });
            resolve_scope(topo, &narrowed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::figure1_network;
    use crate::FaultSet;
    use lyra_lang::parse_scopes;

    #[test]
    fn figure7_scopes_resolve() {
        let topo = figure1_network();
        let scopes = parse_scopes(
            r#"
            int_in: [ ToR* | PER-SW | - ]
            int_transit: [ Agg* | PER-SW | - ]
            int_out: [ ToR* | PER-SW | - ]
            loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]
            "#,
        )
        .unwrap();
        let int_in = resolve_scope(&topo, &scopes[0]).unwrap();
        assert_eq!(int_in.switches.len(), 4);
        assert_eq!(int_in.paths.len(), 4); // one per ToR

        let lb = resolve_scope(&topo, &scopes[3]).unwrap();
        assert_eq!(lb.switches.len(), 4);
        assert_eq!(lb.paths.len(), 4); // the paper's four Agg→ToR paths
    }

    #[test]
    fn empty_region_is_error() {
        let topo = figure1_network();
        let scopes = parse_scopes("x: [ Spine* | PER-SW | - ]").unwrap();
        assert!(resolve_scope(&topo, &scopes[0]).is_err());
    }

    #[test]
    fn direction_outside_region_is_error() {
        let topo = figure1_network();
        let scopes = parse_scopes("lb: [ Agg3,ToR3 | MULTI-SW | (Agg3->ToR4) ]").unwrap();
        let err = resolve_scope(&topo, &scopes[0]).unwrap_err();
        assert!(err.message.contains("outside the scope region"));
    }

    #[test]
    fn unknown_direction_switch_is_error() {
        let topo = figure1_network();
        let scopes = parse_scopes("lb: [ Agg* | MULTI-SW | (Agg3->Banana) ]").unwrap();
        assert!(resolve_scope(&topo, &scopes[0]).is_err());
    }

    #[test]
    fn disconnected_direction_is_error() {
        let topo = figure1_network();
        // Agg1 and ToR3 are in different pods; with only those two switches
        // allowed there is no path.
        let scopes = parse_scopes("lb: [ Agg1,ToR3 | MULTI-SW | (Agg1->ToR3) ]").unwrap();
        let err = resolve_scope(&topo, &scopes[0]).unwrap_err();
        assert!(err.message.contains("no flow path"));
    }

    #[test]
    fn degraded_resolution_drops_dead_direction_endpoints() {
        let topo = figure1_network();
        let degraded = topo.degrade(&FaultSet::new().with_switch("Agg3")).topology;
        let scopes =
            parse_scopes("lb: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]")
                .unwrap();
        // Strict resolution rejects the now-unknown `Agg3` endpoint…
        let err = resolve_scope(&degraded, &scopes[0]).unwrap_err();
        assert_eq!(err.code, codes::SCOPE_UNKNOWN_SWITCH);
        // …while the degraded entry point narrows the direction and succeeds.
        let resolved = resolve_scope_degraded(&degraded, &scopes[0]).unwrap();
        assert_eq!(resolved.switches.len(), 3);
        assert_eq!(resolved.paths.len(), 2); // Agg4→ToR3, Agg4→ToR4
    }

    #[test]
    fn degraded_resolution_fails_when_all_ingress_dead() {
        let topo = figure1_network();
        let degraded = topo
            .degrade(&FaultSet::new().with_switch("Agg3").with_switch("Agg4"))
            .topology;
        let scopes =
            parse_scopes("lb: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]")
                .unwrap();
        let err = resolve_scope_degraded(&degraded, &scopes[0]).unwrap_err();
        assert_eq!(err.code, codes::SCOPE_NO_PATH);
        assert!(err.message.contains("ingress"));
    }

    #[test]
    fn degraded_resolution_matches_strict_on_healthy_topology() {
        let topo = figure1_network();
        let scopes =
            parse_scopes("lb: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]")
                .unwrap();
        assert_eq!(
            resolve_scope(&topo, &scopes[0]).unwrap(),
            resolve_scope_degraded(&topo, &scopes[0]).unwrap()
        );
    }
}
