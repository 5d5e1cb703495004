#![warn(missing_docs)]
//! # lyra-diag — structured diagnostics and compile observability
//!
//! Every phase of the Lyra compiler (lexing, parsing, semantic checking,
//! scope resolution, SMT synthesis, code generation) reports problems as
//! [`Diagnostic`] values: a severity, a stable `LYR0xxx` [`Code`], one
//! primary [`Span`] plus any number of secondary labels, and free-form
//! notes. A [`SourceMap`] turns a diagnostic into a rustc-style annotated
//! snippet; the [`json`] module serializes diagnostics and compile-session
//! stats without any external dependency.
//!
//! ```
//! use lyra_diag::{codes, Diagnostic, SourceMap, Span};
//!
//! let mut sm = SourceMap::new();
//! let src_id = sm.add("demo.lyra", "if (x in tabl) { drop(); }");
//! let diag = Diagnostic::error(codes::UNKNOWN_EXTERN, "undeclared extern `tabl`")
//!     .with_span(src_id, Span::new(10, 14))
//!     .with_note("externs must be declared with `extern list<...>` before use");
//! let rendered = sm.render(&diag);
//! assert!(rendered.contains("error[LYR0105]"));
//! assert!(rendered.contains("^^^^"));
//! ```

pub mod json;

use std::fmt;

/// A half-open byte span into a source text, used for diagnostics.
///
/// This is the single span type shared by every Lyra crate (the AST,
/// the checker, the scope language, and diagnostics rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Span {
    /// Start byte offset.
    pub lo: u32,
    /// End byte offset (exclusive).
    pub hi: u32,
}

impl Span {
    /// Construct a span.
    pub fn new(lo: u32, hi: u32) -> Self {
        Span { lo, hi }
    }

    /// The 1-based line/column of `self.lo` within `src`.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, ch) in src.char_indices() {
            if i as u32 >= self.lo {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note emitted alongside other diagnostics.
    Note,
    /// Suspicious but not fatal; compilation continues.
    Warning,
    /// Fatal: the phase that emitted it failed.
    Error,
}

impl Severity {
    /// Lower-case name as rendered in human output (`error`, `warning`, `note`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A stable diagnostic code, e.g. `LYR0102`.
///
/// Codes are grouped by pipeline phase; see [`codes`] for the registry.
/// Codes never get reused once published — tools may match on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Code(pub &'static str);

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// The registry of stable diagnostic codes.
///
/// Ranges:
/// * `LYR00xx` — lexer / parser
/// * `LYR01xx` — semantic checker and lowering (`LYR015x` are warnings)
/// * `LYR02xx` — scope language and scope resolution over the topology
/// * `LYR03xx` — SMT encoding (pre-solve structural errors)
/// * `LYR04xx` — synthesis outcomes (infeasibility families, budget)
/// * `LYR05xx` — code generation, backend validation, and robustness
///   (`LYR055x` are degraded-result and fault-model codes, `LYR056x` are
///   transactional-rollout codes, `LYR057x` are controller-crash
///   recovery and anti-entropy codes, `LYR058x` are failure-detection
///   and self-healing codes)
/// * `LYR06xx` — semantic-oracle and IR-invariant codes (differential
///   checking of emitted artifacts against the IR interpreter)
pub mod codes {
    use super::Code;

    /// Lexical error (unterminated string, bad character, bad number).
    pub const LEX: Code = Code("LYR0001");
    /// Parse error: unexpected token.
    pub const PARSE: Code = Code("LYR0002");

    /// Duplicate definition (header, packet, parser node, algorithm, func).
    pub const DUPLICATE_DEF: Code = Code("LYR0101");
    /// Pipeline references an algorithm that does not exist.
    pub const UNKNOWN_ALGORITHM: Code = Code("LYR0102");
    /// Call to an unknown function or builtin.
    pub const UNKNOWN_FUNCTION: Code = Code("LYR0103");
    /// Wrong number of arguments in a call.
    pub const ARITY_MISMATCH: Code = Code("LYR0104");
    /// `x in t` where `t` is not a declared extern.
    pub const UNKNOWN_EXTERN: Code = Code("LYR0105");
    /// A void builtin used where a value is required.
    pub const VOID_AS_VALUE: Code = Code("LYR0106");
    /// Bit-slice `f[hi:lo]` with `hi < lo`.
    pub const BAD_SLICE: Code = Code("LYR0107");
    /// Zero-width field or slice.
    pub const ZERO_WIDTH: Code = Code("LYR0108");
    /// Unknown header or field reference.
    pub const UNKNOWN_FIELD: Code = Code("LYR0109");
    /// Indexing a name that is not a global register array.
    pub const BAD_INDEX: Code = Code("LYR0110");
    /// A declaration shadows a builtin function.
    pub const SHADOWS_BUILTIN: Code = Code("LYR0111");
    /// Error while lowering the checked AST to IR.
    pub const LOWER: Code = Code("LYR0112");

    /// Warning: identifier treated as implicit per-packet metadata.
    pub const IMPLICIT_METADATA: Code = Code("LYR0151");
    /// Warning: algorithm defined but not referenced by any pipeline.
    pub const UNUSED_ALGORITHM: Code = Code("LYR0152");

    /// Malformed line in the scope specification language.
    pub const SCOPE_SYNTAX: Code = Code("LYR0201");
    /// Scope names an algorithm the program does not define.
    pub const SCOPE_UNKNOWN_ALGORITHM: Code = Code("LYR0202");
    /// Pipeline algorithm has no scope entry.
    pub const SCOPE_MISSING: Code = Code("LYR0203");
    /// Scope region matches no switch in the topology.
    pub const SCOPE_EMPTY_REGION: Code = Code("LYR0204");
    /// Direction endpoint names an unknown switch.
    pub const SCOPE_UNKNOWN_SWITCH: Code = Code("LYR0205");
    /// Direction endpoint lies outside the scoped region.
    pub const SCOPE_OUTSIDE_REGION: Code = Code("LYR0206");
    /// No flow path exists between the direction endpoints.
    pub const SCOPE_NO_PATH: Code = Code("LYR0207");
    /// An algorithm is given more than one scope line.
    pub const SCOPE_DUPLICATE: Code = Code("LYR0208");

    /// Topology/encoding error: no programmable switch available.
    pub const NO_PROGRAMMABLE: Code = Code("LYR0301");
    /// Encoding references an unknown ASIC model.
    pub const UNKNOWN_ASIC: Code = Code("LYR0302");
    /// Structural encoding error (anything else pre-solve).
    pub const ENCODE: Code = Code("LYR0303");

    /// Placement infeasible: no constraint family singled out.
    pub const INFEASIBLE: Code = Code("LYR0401");
    /// Infeasible: a table exceeds every candidate switch's memory blocks.
    pub const INFEASIBLE_MEMORY: Code = Code("LYR0402");
    /// Infeasible: dependency chain exceeds the stage budget.
    pub const INFEASIBLE_STAGES: Code = Code("LYR0403");
    /// Infeasible: header/metadata bits exceed the PHV budget.
    pub const INFEASIBLE_PHV: Code = Code("LYR0404");
    /// Infeasible: more tables than the pipeline can host.
    pub const INFEASIBLE_TABLES: Code = Code("LYR0405");
    /// Solver exhausted its decision budget or deadline before reaching a
    /// verdict (`Outcome::Unknown`) and no fallback placement was accepted
    /// — distinct from proved-infeasible.
    pub const SOLVER_BUDGET: Code = Code("LYR0410");

    /// Code generation failed for a placed program.
    pub const CODEGEN: Code = Code("LYR0501");
    /// Generated artifact failed backend validation.
    pub const VALIDATE: Code = Code("LYR0502");

    /// Warning: the placement was produced by a degradation-ladder rung
    /// (the solver deadline or decision budget expired); the message names
    /// the rung (`greedy-first-fit`).
    pub const DEGRADED: Code = Code("LYR0550");
    /// A fault set left an algorithm scope with no surviving switch.
    pub const FAULT_UNREACHABLE: Code = Code("LYR0551");
    /// A fault set left an algorithm scope with switches but no surviving
    /// flow path (the scope region is partitioned).
    pub const FAULT_PARTITIONED: Code = Code("LYR0552");

    /// A transactional rollout could not stage its new placement on some
    /// switch (capacity refused, switch dead, or the prepare message never
    /// got through).
    pub const ROLLOUT_PREPARE_FAILED: Code = Code("LYR0560");
    /// A rollout prepared everywhere but a commit was never acknowledged
    /// within the retry budget.
    pub const ROLLOUT_COMMIT_TIMEOUT: Code = Code("LYR0561");
    /// Warning: the rollout was rolled back; every switch serves the prior
    /// epoch (the message names the failure that triggered it).
    pub const ROLLOUT_ROLLED_BACK: Code = Code("LYR0562");
    /// The control channel to one switch exhausted its bounded retries
    /// (drops/timeouts on every attempt).
    pub const ROLLOUT_CHANNEL_EXHAUSTED: Code = Code("LYR0563");
    /// A rollout was refused up front: an algorithm scope is not
    /// survivable under the current fault set (gating check).
    pub const ROLLOUT_GATED: Code = Code("LYR0564");

    /// The controller crashed (injected by a `CrashPlan`) partway through
    /// a rollout; the intent log and switch-held state are the only
    /// surviving record, and `Runtime::recover` must be run.
    pub const CONTROLLER_CRASHED: Code = Code("LYR0570");
    /// Warning: restart recovery drove an in-flight rollout forward to an
    /// all-commit outcome (the commit decision was journaled and every
    /// switch held or served the staged epoch).
    pub const RECOVERY_COMMITTED: Code = Code("LYR0571");
    /// Warning: restart recovery drove an in-flight rollout to an
    /// all-rollback outcome (the burned epoch is never reused).
    pub const RECOVERY_ROLLED_BACK: Code = Code("LYR0572");
    /// Warning: a switch could not be queried during restart recovery
    /// (its state is unknown), which forces the rollback outcome.
    pub const RECOVERY_QUERY_FAILED: Code = Code("LYR0573");
    /// The write-ahead intent log is unreadable or holds a torn/corrupt
    /// record; recovery cannot trust it.
    pub const INTENT_LOG_CORRUPT: Code = Code("LYR0574");
    /// Warning: the anti-entropy audit found switch-held state diverging
    /// from the controller-expected state (the message names the drift
    /// classes and counts).
    pub const DRIFT_DETECTED: Code = Code("LYR0575");
    /// Warning: the anti-entropy audit repaired drifted entries in place
    /// (minimal repair installs/removals against the expected state).
    pub const DRIFT_REPAIRED: Code = Code("LYR0576");
    /// Appending to the write-ahead intent log failed (I/O error or
    /// injected store fault); the rollout halts as if the controller
    /// crashed, because un-journaled sends would be unrecoverable.
    pub const INTENT_STORE_IO: Code = Code("LYR0577");

    /// The health monitor confirmed a switch or link dead: enough
    /// consecutive probes went unanswered (the message names the target
    /// and the count).
    pub const HEALTH_DEAD: Code = Code("LYR0580");
    /// Warning: the health monitor confirmed a *gray* failure — the
    /// target answers probes but slowly or lossily (sustained degraded /
    /// lost fraction above the gray threshold without crossing dead).
    pub const HEALTH_GRAY: Code = Code("LYR0581");
    /// Warning: a target's failure signal is flapping (repeated down/up
    /// edges inside the damping window); its flap penalty is accruing.
    pub const HEALTH_FLAPPING: Code = Code("LYR0582");
    /// Warning: a flapping target was quarantined — it stays failed out
    /// and is not restored on apparent recovery until its flap penalty
    /// decays, so an oscillating element converges to one recompile
    /// instead of a recompile storm.
    pub const HEALTH_QUARANTINED: Code = Code("LYR0583");
    /// Warning: the self-healer completed a remediation round
    /// (fail + recompile + rollout + audit) for confirmed suspicions.
    pub const HEAL_REMEDIATED: Code = Code("LYR0584");
    /// Warning: a healed target passed its probation window and was
    /// reinstated (placement re-expanded, entries re-synced).
    pub const HEAL_RESTORED: Code = Code("LYR0585");
    /// Warning: a remediation was deferred by the healer's rate limit /
    /// damped backoff; the confirmed faults stay coalesced for the next
    /// round.
    pub const HEAL_RATE_LIMITED: Code = Code("LYR0586");
    /// A remediation round failed (the recompile was refused or the
    /// rollout rolled back); the healer backs off and retries.
    pub const HEAL_FAILED: Code = Code("LYR0587");

    /// The idempotency-token space was exhausted: the rollout epoch or
    /// its per-message sequence number no longer fits the
    /// `(epoch << 32) | seq` token split. Minting stops with a hard
    /// error — a wrapped token would silently collide with another
    /// epoch's tokens and make a switch swallow a live message as a
    /// duplicate.
    pub const TOKEN_OVERFLOW: Code = Code("LYR0590");

    /// The semantic oracle found a divergence between the IR interpreter
    /// and the model recovered from one emitted artifact (the message
    /// names the switch, backend, and first differing field/effect).
    pub const ORACLE_DIVERGENCE: Code = Code("LYR0601");
    /// The semantic oracle found a divergence between two emitted
    /// backends compiled from the same program (cross-backend pair check).
    pub const ORACLE_PAIR_DIVERGENCE: Code = Code("LYR0602");
    /// The oracle could not parse an emitted artifact back into an
    /// executable model (unknown statement shape, name collision after
    /// sanitization, or a malformed table block).
    pub const ORACLE_PARSE: Code = Code("LYR0603");
    /// An IR invariant was violated at a front-end pass boundary (SSA
    /// single definition, def-before-use, width consistency, predication
    /// exclusivity, or dependency acyclicity).
    pub const IR_INVARIANT: Code = Code("LYR0604");
    /// The control-plane stub disagrees with the placement: a hosted
    /// table is missing its driver functions, capacity, or action rules.
    pub const ORACLE_CONTROL: Code = Code("LYR0605");
}

/// Identifies one source text inside a [`SourceMap`].
///
/// By convention in the Lyra driver, id `0` is the program source and
/// id `1` is the scope specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(pub u32);

/// One annotated region of source inside a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// Which source the span points into; `None` if the diagnostic was
    /// produced by a crate that cannot know the id (the driver attaches it).
    pub source: Option<SourceId>,
    /// The annotated byte range.
    pub span: Span,
    /// Short message shown next to the carets; may be empty.
    pub message: String,
    /// Primary labels get `^^^` underlines, secondary get `---`.
    pub primary: bool,
}

/// A structured compiler diagnostic.
///
/// Built with the fluent constructors and rendered either through
/// [`SourceMap::render`] (human) or [`Diagnostic::to_json`] (machines):
///
/// ```
/// use lyra_diag::{codes, Diagnostic, Severity, Span};
///
/// let d = Diagnostic::error(codes::ARITY_MISMATCH, "`hash` expects 2 arguments, found 3")
///     .with_anonymous_span(Span::new(42, 60))
///     .with_note("declared here with 2 parameters");
/// assert_eq!(d.severity, Severity::Error);
/// assert_eq!(d.code.unwrap().0, "LYR0104");
/// assert!(d.primary_span().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error, warning, or note.
    pub severity: Severity,
    /// Stable code; `None` only for ad-hoc notes.
    pub code: Option<Code>,
    /// The headline message.
    pub message: String,
    /// Annotated source regions (first primary label is "the" location).
    pub labels: Vec<Label>,
    /// Free-form follow-up notes rendered under the snippet.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new error diagnostic.
    pub fn error(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code: Some(code),
            message: message.into(),
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A new warning diagnostic.
    pub fn warning(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Self::error(code, message)
        }
    }

    /// A new note diagnostic (no code).
    pub fn note(message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Note,
            code: None,
            message: message.into(),
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Attach a primary span pointing into source `source`.
    pub fn with_span(mut self, source: SourceId, span: Span) -> Self {
        self.labels.push(Label {
            source: Some(source),
            span,
            message: String::new(),
            primary: true,
        });
        self
    }

    /// Attach a primary span whose source id is not yet known; the driver
    /// resolves it with [`Diagnostic::attach_source`].
    pub fn with_anonymous_span(mut self, span: Span) -> Self {
        self.labels.push(Label {
            source: None,
            span,
            message: String::new(),
            primary: true,
        });
        self
    }

    /// Attach a labelled primary span (message shown next to the carets).
    pub fn with_labelled_span(
        mut self,
        source: SourceId,
        span: Span,
        msg: impl Into<String>,
    ) -> Self {
        self.labels.push(Label {
            source: Some(source),
            span,
            message: msg.into(),
            primary: true,
        });
        self
    }

    /// Attach a secondary span (rendered with `---` underlines).
    pub fn with_secondary_span(
        mut self,
        source: SourceId,
        span: Span,
        msg: impl Into<String>,
    ) -> Self {
        self.labels.push(Label {
            source: Some(source),
            span,
            message: msg.into(),
            primary: false,
        });
        self
    }

    /// Append a note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Resolve every label that has no [`SourceId`] to `source`.
    ///
    /// The `lang` and `topo` crates emit spans without knowing which slot
    /// their source occupies in the driver's [`SourceMap`]; the driver
    /// calls this once per phase.
    pub fn attach_source(mut self, source: SourceId) -> Self {
        for l in &mut self.labels {
            if l.source.is_none() {
                l.source = Some(source);
            }
        }
        self
    }

    /// The first primary label's span, if any.
    pub fn primary_span(&self) -> Option<Span> {
        self.labels.iter().find(|l| l.primary).map(|l| l.span)
    }

    /// Serialize to a [`json::Value`] object (code, severity, message,
    /// labels with byte spans, notes).
    pub fn to_json(&self) -> json::Value {
        let mut obj = json::Object::new();
        obj.push("severity", json::Value::str(self.severity.as_str()));
        obj.push(
            "code",
            match self.code {
                Some(c) => json::Value::str(c.0),
                None => json::Value::Null,
            },
        );
        obj.push("message", json::Value::str(&self.message));
        obj.push(
            "labels",
            json::Value::Array(
                self.labels
                    .iter()
                    .map(|l| {
                        let mut lo = json::Object::new();
                        lo.push(
                            "source",
                            match l.source {
                                Some(SourceId(id)) => json::Value::Number(id as f64),
                                None => json::Value::Null,
                            },
                        );
                        lo.push("lo", json::Value::Number(l.span.lo as f64));
                        lo.push("hi", json::Value::Number(l.span.hi as f64));
                        lo.push("message", json::Value::str(&l.message));
                        lo.push("primary", json::Value::Bool(l.primary));
                        json::Value::Object(lo)
                    })
                    .collect(),
            ),
        );
        obj.push(
            "notes",
            json::Value::Array(self.notes.iter().map(json::Value::str).collect()),
        );
        json::Value::Object(obj)
    }

    /// Rebuild a diagnostic from [`Diagnostic::to_json`] output. Codes are
    /// matched against the registry; unknown codes are dropped. Used by the
    /// JSON round-trip tests and by tools consuming `lyrac --diag-format json`.
    pub fn from_json(v: &json::Value) -> Option<Diagnostic> {
        let obj = v.as_object()?;
        let severity = match obj.get("severity")?.as_str()? {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            "note" => Severity::Note,
            _ => return None,
        };
        let code = obj
            .get("code")
            .and_then(|c| c.as_str())
            .and_then(lookup_code);
        let message = obj.get("message")?.as_str()?.to_string();
        let mut labels = Vec::new();
        if let Some(arr) = obj.get("labels").and_then(|l| l.as_array()) {
            for l in arr {
                let lo = l.as_object()?;
                labels.push(Label {
                    source: lo
                        .get("source")
                        .and_then(|s| s.as_number())
                        .map(|n| SourceId(n as u32)),
                    span: Span::new(
                        lo.get("lo")?.as_number()? as u32,
                        lo.get("hi")?.as_number()? as u32,
                    ),
                    message: lo
                        .get("message")
                        .and_then(|m| m.as_str())
                        .unwrap_or("")
                        .to_string(),
                    primary: lo.get("primary").and_then(|p| p.as_bool()).unwrap_or(true),
                });
            }
        }
        let notes = obj
            .get("notes")
            .and_then(|n| n.as_array())
            .map(|arr| {
                arr.iter()
                    .filter_map(|n| n.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        Some(Diagnostic {
            severity,
            code,
            message,
            labels,
            notes,
        })
    }
}

/// Look up a registry [`Code`] by its string form (`"LYR0102"`).
pub fn lookup_code(s: &str) -> Option<Code> {
    use codes::*;
    const ALL: &[Code] = &[
        LEX,
        PARSE,
        DUPLICATE_DEF,
        UNKNOWN_ALGORITHM,
        UNKNOWN_FUNCTION,
        ARITY_MISMATCH,
        UNKNOWN_EXTERN,
        VOID_AS_VALUE,
        BAD_SLICE,
        ZERO_WIDTH,
        UNKNOWN_FIELD,
        BAD_INDEX,
        SHADOWS_BUILTIN,
        LOWER,
        IMPLICIT_METADATA,
        UNUSED_ALGORITHM,
        SCOPE_SYNTAX,
        SCOPE_UNKNOWN_ALGORITHM,
        SCOPE_MISSING,
        SCOPE_EMPTY_REGION,
        SCOPE_UNKNOWN_SWITCH,
        SCOPE_OUTSIDE_REGION,
        SCOPE_NO_PATH,
        SCOPE_DUPLICATE,
        NO_PROGRAMMABLE,
        UNKNOWN_ASIC,
        ENCODE,
        INFEASIBLE,
        INFEASIBLE_MEMORY,
        INFEASIBLE_STAGES,
        INFEASIBLE_PHV,
        INFEASIBLE_TABLES,
        SOLVER_BUDGET,
        CODEGEN,
        VALIDATE,
        DEGRADED,
        FAULT_UNREACHABLE,
        FAULT_PARTITIONED,
        ROLLOUT_PREPARE_FAILED,
        ROLLOUT_COMMIT_TIMEOUT,
        ROLLOUT_ROLLED_BACK,
        ROLLOUT_CHANNEL_EXHAUSTED,
        ROLLOUT_GATED,
        CONTROLLER_CRASHED,
        RECOVERY_COMMITTED,
        RECOVERY_ROLLED_BACK,
        RECOVERY_QUERY_FAILED,
        INTENT_LOG_CORRUPT,
        DRIFT_DETECTED,
        DRIFT_REPAIRED,
        INTENT_STORE_IO,
    ];
    ALL.iter().copied().find(|c| c.0 == s)
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.code {
            Some(c) => write!(f, "{}[{}]: {}", self.severity, c, self.message),
            None => write!(f, "{}: {}", self.severity, self.message),
        }
    }
}

impl std::error::Error for Diagnostic {}

/// The compile phases the driver reports timings and events for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Lex + parse the program source.
    Parse,
    /// Semantic checking.
    Check,
    /// AST → IR lowering.
    Lower,
    /// Scope-spec parsing and resolution over the topology.
    Scopes,
    /// Constraint encoding (program × topology → SMT model).
    Encode,
    /// Constraint solving.
    Solve,
    /// Placement extraction + context synthesis.
    Synthesize,
    /// Per-switch backend code generation.
    Codegen,
    /// Freeing the synthesis result (the encoded model above all) once
    /// code generation no longer needs it.
    Release,
    /// Transactional control-plane rollout of a placement onto a running
    /// deployment (prepare/commit across switches).
    Rollout,
}

impl Phase {
    /// Stable lower-case name (used as JSON keys).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Check => "check",
            Phase::Lower => "lower",
            Phase::Scopes => "scopes",
            Phase::Encode => "encode",
            Phase::Solve => "solve",
            Phase::Synthesize => "synthesize",
            Phase::Codegen => "codegen",
            Phase::Release => "release",
            Phase::Rollout => "rollout",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Maps [`SourceId`]s to named source texts and renders diagnostics as
/// rustc-style annotated snippets.
///
/// ```
/// use lyra_diag::{codes, Diagnostic, SourceMap, Span};
///
/// let mut sm = SourceMap::new();
/// let id = sm.add("prog.lyra", "pipeline[X]{ nat };");
/// let d = Diagnostic::error(codes::UNKNOWN_ALGORITHM, "unknown algorithm `nat`")
///     .with_span(id, Span::new(13, 16));
/// let out = sm.render(&d);
/// assert!(out.contains("prog.lyra:1:14"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct SourceMap {
    sources: Vec<(String, String)>,
}

impl SourceMap {
    /// An empty map.
    pub fn new() -> Self {
        SourceMap::default()
    }

    /// Register a source text; returns its id (sequential from 0).
    pub fn add(&mut self, name: impl Into<String>, text: impl Into<String>) -> SourceId {
        self.sources.push((name.into(), text.into()));
        SourceId(self.sources.len() as u32 - 1)
    }

    /// The registered name for `id`.
    pub fn name(&self, id: SourceId) -> Option<&str> {
        self.sources.get(id.0 as usize).map(|(n, _)| n.as_str())
    }

    /// The registered text for `id`.
    pub fn text(&self, id: SourceId) -> Option<&str> {
        self.sources.get(id.0 as usize).map(|(_, t)| t.as_str())
    }

    /// Render one diagnostic as an annotated snippet:
    ///
    /// ```text
    /// error[LYR0102]: unknown algorithm `nat`
    ///   --> prog.lyra:1:14
    ///    |
    ///  1 | pipeline[X]{ nat };
    ///    |              ^^^
    /// ```
    pub fn render(&self, diag: &Diagnostic) -> String {
        let mut out = String::new();
        out.push_str(&diag.to_string());
        out.push('\n');

        for label in &diag.labels {
            let Some(src_id) = label.source else { continue };
            let Some(text) = self.text(src_id) else {
                continue;
            };
            let name = self.name(src_id).unwrap_or("<unknown>");
            let (line, col) = label.span.line_col(text);
            out.push_str(&format!("  --> {}:{}:{}\n", name, line, col));
            self.render_snippet(&mut out, text, label);
        }
        for note in &diag.notes {
            out.push_str(&format!("  note: {}\n", note));
        }
        out
    }

    /// Render every diagnostic in order, separated by blank lines.
    pub fn render_all(&self, diags: &[Diagnostic]) -> String {
        diags
            .iter()
            .map(|d| self.render(d))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn render_snippet(&self, out: &mut String, text: &str, label: &Label) {
        // Collect the (1-based) lines the span covers together with the
        // byte offset each line starts at.
        let mut lines: Vec<(usize, u32, &str)> = Vec::new();
        let mut offset = 0u32;
        for (i, line) in text.split('\n').enumerate() {
            let len = line.len() as u32;
            let start = offset;
            let end = offset + len;
            // A span touching [start, end] (inclusive of the newline position
            // for zero-width EOL spans) includes this line.
            if label.span.lo <= end && label.span.hi > start
                || (label.span.lo == label.span.hi
                    && label.span.lo >= start
                    && label.span.lo <= end)
            {
                lines.push((i + 1, start, line));
            }
            offset = end + 1;
        }
        if lines.is_empty() {
            return;
        }
        let gutter = lines
            .last()
            .map(|(n, _, _)| n.to_string().len())
            .unwrap_or(1);
        let marker = if label.primary { '^' } else { '-' };
        out.push_str(&format!("{:>w$} |\n", "", w = gutter));
        let multi = lines.len() > 1;
        for (idx, (num, start, line)) in lines.iter().enumerate() {
            out.push_str(&format!("{:>w$} | {}\n", num, line, w = gutter));
            let line_len = line.len() as u32;
            let from = label.span.lo.saturating_sub(*start).min(line_len) as usize;
            let to = (label.span.hi.saturating_sub(*start)).min(line_len) as usize;
            let width = to.saturating_sub(from).max(1);
            let mut underline = format!(
                "{:>w$} | {}{}",
                "",
                " ".repeat(from),
                marker.to_string().repeat(width),
                w = gutter
            );
            let is_last = idx == lines.len() - 1;
            if is_last && !label.message.is_empty() {
                underline.push(' ');
                underline.push_str(&label.message);
            } else if multi && idx == 0 {
                underline.push_str(" ...");
            }
            underline.push('\n');
            out.push_str(&underline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_single_line() {
        let mut sm = SourceMap::new();
        let id = sm.add("a.lyra", "foo bar baz");
        let d = Diagnostic::error(codes::PARSE, "unexpected `bar`").with_span(id, Span::new(4, 7));
        let r = sm.render(&d);
        assert!(r.contains("error[LYR0002]: unexpected `bar`"), "{r}");
        assert!(r.contains("a.lyra:1:5"), "{r}");
        assert!(r.contains("^^^"), "{r}");
    }

    #[test]
    fn render_multi_line_span() {
        let mut sm = SourceMap::new();
        let id = sm.add("m.lyra", "alpha\nbeta\ngamma");
        let d = Diagnostic::error(codes::ENCODE, "spans lines").with_span(id, Span::new(2, 12));
        let r = sm.render(&d);
        assert!(r.contains("1 | alpha"), "{r}");
        assert!(r.contains("2 | beta"), "{r}");
        assert!(r.contains("3 | gamma"), "{r}");
    }

    #[test]
    fn secondary_labels_use_dashes() {
        let mut sm = SourceMap::new();
        let id = sm.add("s.lyra", "first\nsecond");
        let d = Diagnostic::error(codes::DUPLICATE_DEF, "dup")
            .with_span(id, Span::new(0, 5))
            .with_secondary_span(id, Span::new(6, 12), "previous definition");
        let r = sm.render(&d);
        assert!(r.contains("^^^^^"), "{r}");
        assert!(r.contains("------ previous definition"), "{r}");
    }

    #[test]
    fn json_round_trip() {
        let d = Diagnostic::error(codes::INFEASIBLE_MEMORY, "table too big")
            .with_span(SourceId(0), Span::new(3, 9))
            .with_note("switch tor1 has 40 SRAM blocks");
        let v = d.to_json();
        let text = v.to_string();
        let parsed = json::parse(&text).expect("parses");
        let back = Diagnostic::from_json(&parsed).expect("round-trips");
        assert_eq!(back, d);
    }

    #[test]
    fn code_lookup() {
        assert_eq!(lookup_code("LYR0402"), Some(codes::INFEASIBLE_MEMORY));
        assert_eq!(lookup_code("LYR9999"), None);
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }
}
