//! Structural validators for generated code.
//!
//! These stand in for the vendor toolchains the paper used to confirm its
//! output compiles. After a brace-balance check on the text, the artifact
//! is read by [`oracle::parse`] — the one reader of emitted code, the same
//! model the semantic oracle lifts and runs — and the checks are made on
//! that model: every applied or looked-up table is declared, every action a
//! table lists is declared, and every function an NPL program calls is
//! declared. The model also gives the table/action/register counts
//! reported in Figure 9.

use lyra_chips::TargetLang;

use crate::emit::Artifact;
use crate::oracle::{self, strip_comments, ArtifactModel, Step};

/// Counts extracted from generated code — the Figure 9 resource columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CodeSummary {
    /// Tables (P4 `table` / NPL `logical_table`).
    pub tables: u64,
    /// Actions (P4 `action` / NPL `function` + `fields_assign` bodies).
    pub actions: u64,
    /// Stateful registers (P4 `register` / NPL `logical_register`).
    pub registers: u64,
    /// Total lines of code.
    pub loc: u64,
    /// NPL: number of `lookup` calls in the program block.
    pub lookups: u64,
}

/// Validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Problem description.
    pub message: String,
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "validation error: {}", self.message)
    }
}

impl std::error::Error for ValidateError {}

/// Validate an artifact and summarize its resource counts.
pub fn validate(artifact: &Artifact) -> Result<CodeSummary, ValidateError> {
    check_braces(&artifact.code)?;
    let m = oracle::parse(artifact).map_err(|e| ValidateError {
        message: format!("{} artifact does not parse: {e}", artifact.lang.name()),
    })?;
    check_references(&m)?;
    let actions = match artifact.lang {
        TargetLang::Npl => m.functions.len(),
        TargetLang::P414 | TargetLang::P416 => m.actions.len(),
    };
    let lookups = m
        .steps
        .iter()
        .filter(|s| matches!(s, Step::NplLookup { .. }));
    Ok(CodeSummary {
        tables: m.tables.len() as u64,
        actions: actions as u64,
        registers: m.registers.len() as u64,
        loc: loc(&artifact.code),
        lookups: lookups.count() as u64,
    })
}

fn check_braces(code: &str) -> Result<(), ValidateError> {
    let mut depth = 0i64;
    for (ln, line) in code.lines().enumerate() {
        for b in strip_comments(line).bytes() {
            depth += i64::from(b == b'{') - i64::from(b == b'}');
            if depth < 0 {
                return Err(ValidateError {
                    message: format!("unbalanced `}}` on line {}", ln + 1),
                });
            }
        }
    }
    if depth != 0 {
        return Err(ValidateError {
            message: format!("{depth} unclosed braces"),
        });
    }
    Ok(())
}

/// Every name the apply pipeline or a table uses is declared.
fn check_references(m: &ArtifactModel) -> Result<(), ValidateError> {
    let undeclared = |message: String| Err(ValidateError { message });
    for step in &m.steps {
        match step {
            Step::Apply { table, .. } if !m.tables.contains_key(table) => {
                return undeclared(format!("apply references undeclared table `{table}`"));
            }
            Step::NplLookup { table, .. } if !m.tables.contains_key(table) => {
                return undeclared(format!(
                    "lookup references undeclared logical_table `{table}`"
                ));
            }
            Step::Func { name } if !m.functions.contains_key(name) => {
                return undeclared(format!("program calls undeclared function `{name}`"));
            }
            _ => {}
        }
    }
    for t in m.tables.values() {
        for a in &t.actions {
            if a != "no_op" && a != "NoAction" && !m.actions.contains_key(a) {
                return undeclared(format!("table references undeclared action `{a}`"));
            }
        }
    }
    Ok(())
}

fn loc(code: &str) -> u64 {
    code.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*"))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lyra_lang::parse_scopes;
    use lyra_synth::{synthesize, Backend, EncodeOptions};
    use lyra_topo::{resolve_scope, Layer, Topology};

    /// A dict lookup, a register update and a hash: every declaration kind.
    const SRC: &str = r#"
        pipeline[P]{a};
        algorithm a {
            extern dict<bit[32] k, bit[32] v>[64] t;
            global bit[32][16] hits;
            bit[32] h;
            h = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
            if (h in t) {
                ipv4.dstAddr = t[h];
                hits[0] = hits[0] + 1;
            }
        }
    "#;

    /// The artifact a one-switch PER-SW compile of [`SRC`] emits for `asic`.
    fn artifact(asic: &str) -> Artifact {
        let ir = lyra_ir::frontend(SRC).unwrap();
        let mut topo = Topology::new();
        topo.add_switch("ToR1", Layer::ToR, asic);
        let scopes = parse_scopes("a: [ ToR1 | PER-SW | - ]").unwrap();
        let resolved: Vec<_> = scopes
            .iter()
            .map(|s| resolve_scope(&topo, s).unwrap())
            .collect();
        let opts = EncodeOptions::default();
        let res = synthesize(&ir, &topo, &resolved, &opts, &Backend::Native).unwrap();
        crate::generate(&ir, &topo, &res).unwrap().remove(0)
    }

    /// Validate [`artifact`]`(asic)` with its first `from` replaced by `to`.
    fn mutated(asic: &str, from: &str, to: &str) -> Result<CodeSummary, ValidateError> {
        let mut a = artifact(asic);
        assert!(a.code.contains(from), "`{from}` not in\n{}", a.code);
        a.code = a.code.replacen(from, to, 1);
        validate(&a)
    }

    fn summary(tables: u64, actions: u64, registers: u64, loc: u64, lookups: u64) -> CodeSummary {
        CodeSummary {
            tables,
            actions,
            registers,
            loc,
            lookups,
        }
    }

    #[test]
    fn brace_balance() {
        for asic in ["tofino-32q", "silicon-one", "trident4"] {
            let a = artifact(asic);
            assert!(check_braces(&a.code).is_ok(), "{asic}");
            assert!(check_braces(&format!("{}{{\n", a.code)).is_err(), "{asic}");
            assert!(check_braces(&format!("{}}}\n", a.code)).is_err(), "{asic}");
        }
    }

    #[test]
    fn brace_errors_name_the_problem() {
        // The two brace failure modes carry distinct messages: a premature
        // `}` reports its line; a missing `}` reports the open count.
        let early = mutated("tofino-32q", "parser start {", "} parser start {").unwrap_err();
        assert!(early.message.contains("line 11"), "{early}");
        let open = mutated("tofino-32q", "control egress {\n}", "control egress {").unwrap_err();
        assert!(open.message.contains("1 unclosed"), "{open}");
    }

    #[test]
    fn p414_detects_undeclared_table() {
        let err = mutated("tofino-32q", "apply(a_t1);", "apply(ghost);").unwrap_err();
        assert!(err.message.contains("table `ghost`"), "{err}");
    }

    #[test]
    fn p414_counts() {
        let s = validate(&artifact("tofino-32q")).unwrap();
        assert_eq!(s, summary(2, 6, 1, 69, 0));
    }

    #[test]
    fn p414_detects_undeclared_action() {
        let err = mutated("tofino-32q", "        a_t1_act3;", "        ghost;").unwrap_err();
        assert!(err.message.contains("action `ghost`"), "{err}");
    }

    #[test]
    fn npl_counts_lookups() {
        let s = validate(&artifact("trident4")).unwrap();
        assert_eq!(s, summary(1, 2, 1, 53, 2));
    }

    #[test]
    fn npl_detects_bad_lookup() {
        let err = mutated("trident4", "a_t.lookup(1);", "ghost.lookup(1);").unwrap_err();
        assert!(err.message.contains("logical_table `ghost`"), "{err}");
    }

    #[test]
    fn npl_detects_undeclared_function_call() {
        let call = "    a_hits_regtbl_access();\n}";
        let err = mutated("trident4", call, "    ghost_fn();\n}").unwrap_err();
        assert!(err.message.contains("function `ghost_fn`"), "{err}");
    }

    #[test]
    fn p416_detects_undeclared_apply() {
        let err = mutated("silicon-one", "a_t1.apply();", "ghost.apply();").unwrap_err();
        assert!(err.message.contains("table `ghost`"), "{err}");
    }

    #[test]
    fn p416_counts() {
        let s = validate(&artifact("silicon-one")).unwrap();
        assert_eq!(s, summary(2, 6, 1, 61, 0));
    }
}
