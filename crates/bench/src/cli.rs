//! Structured command-line parsing for the bench binaries: a two-layer
//! parser.
//!
//! 1. A **lexer** ([`ParsedArgs::lex`]) that knows the full flag vocabulary
//!    of a binary: unknown flags, missing values, duplicate flags and stray
//!    positionals are typed [`CliError`]s (exit 2 with a usage message at
//!    the binary boundary).  Both `--flag value` and `--flag=value` work.
//! 2. A **mode builder** ([`ExperimentCli::from_args`]) that folds the
//!    lexed flags into one [`ExperimentMode`] value.  Invalid combinations
//!    are unrepresentable by construction — `Reaggregate` simply has no
//!    `resume` field — and every remaining cross-flag rule is a typed
//!    error naming both flags.

use std::fmt;
use std::time::Duration;

use caem_wsnsim::serve::ServiceConfig;

/// A typed command-line error.  `Display` renders the message the binaries
/// print (followed by their usage text) before exiting 2.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// A flag outside the binary's vocabulary (misspelled flags land here
    /// instead of being silently ignored).
    UnknownFlag(String),
    /// A value-taking flag with its value missing.
    MissingValue(&'static str),
    /// A boolean flag given an `=value`.
    UnexpectedValue(&'static str),
    /// The same flag given twice.
    DuplicateFlag(&'static str),
    /// A flag value that does not parse as what the flag takes.
    InvalidValue {
        /// The flag.
        flag: &'static str,
        /// The rejected text.
        value: String,
        /// What the flag takes.
        expected: &'static str,
    },
    /// A positional argument the binary does not accept.
    UnexpectedPositional(String),
    /// Two flags that each select a mode.
    ModeConflict(&'static str, &'static str),
    /// A flag that is meaningless in the selected mode (its effect would be
    /// silently ignored).
    NotInMode {
        /// The rejected flag.
        flag: &'static str,
        /// The mode selected by the rest of the command line.
        mode: &'static str,
    },
    /// A flag missing the companion that gives it meaning.
    Requires {
        /// The given flag.
        flag: &'static str,
        /// The companion it needs.
        requires: &'static str,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            CliError::UnexpectedValue(flag) => write!(f, "{flag} takes no value"),
            CliError::DuplicateFlag(flag) => write!(f, "{flag} given more than once"),
            CliError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} takes {expected} (got `{value}`)"),
            CliError::UnexpectedPositional(arg) => {
                write!(f, "unexpected argument `{arg}`")
            }
            CliError::ModeConflict(a, b) => {
                write!(f, "{a} and {b} select different modes; pass one")
            }
            CliError::NotInMode { flag, mode } => {
                write!(f, "{flag} has no effect in {mode} mode")
            }
            CliError::Requires { flag, requires } => {
                write!(f, "{flag} requires {requires}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// One flag a binary understands.
#[derive(Debug, Clone, Copy)]
pub struct FlagDef {
    /// The flag, including the leading `--`.
    pub name: &'static str,
    /// Whether the flag consumes a value (`--flag value` / `--flag=value`).
    pub takes_value: bool,
}

/// Declare a boolean flag.
const fn flag(name: &'static str) -> FlagDef {
    FlagDef {
        name,
        takes_value: false,
    }
}

/// Declare a value-taking flag.
pub const fn option(name: &'static str) -> FlagDef {
    FlagDef {
        name,
        takes_value: true,
    }
}

/// The lexed command line: every flag resolved against the binary's
/// vocabulary, plus the bare positionals.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    values: Vec<(&'static str, Option<String>)>,
    /// Positional (non-flag) arguments, in order.
    pub positionals: Vec<String>,
}

impl ParsedArgs {
    /// Lex `args` (without the program name) against `vocabulary`.
    ///
    /// `--flag=value` and `--flag value` are equivalent; `--` ends flag
    /// processing (everything after is positional).  Unknown flags,
    /// duplicate flags, missing or unexpected values are typed errors —
    /// nothing is ignored.
    pub fn lex<I>(args: I, vocabulary: &[FlagDef]) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut parsed = ParsedArgs::default();
        let mut args = args.into_iter();
        let mut flags_done = false;
        while let Some(arg) = args.next() {
            if flags_done || !arg.starts_with("--") {
                parsed.positionals.push(arg);
                continue;
            }
            if arg == "--" {
                flags_done = true;
                continue;
            }
            let (name, inline_value) = match arg.split_once('=') {
                Some((name, value)) => (name.to_string(), Some(value.to_string())),
                None => (arg, None),
            };
            let def = vocabulary
                .iter()
                .find(|d| d.name == name)
                .ok_or(CliError::UnknownFlag(name.clone()))?;
            if parsed.values.iter().any(|(n, _)| *n == def.name) {
                return Err(CliError::DuplicateFlag(def.name));
            }
            let value = match (def.takes_value, inline_value) {
                (false, None) => None,
                (false, Some(_)) => return Err(CliError::UnexpectedValue(def.name)),
                (true, Some(v)) => Some(v),
                (true, None) => {
                    // The next argument is the value — but another flag is
                    // not a value (catches `--store --resume`).
                    match args.next() {
                        Some(v) if !v.starts_with("--") => Some(v),
                        _ => return Err(CliError::MissingValue(def.name)),
                    }
                }
            };
            parsed.values.push((def.name, value));
        }
        Ok(parsed)
    }

    /// Whether a flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }

    /// The raw value of a value-taking flag, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parse a flag's value, mapping a parse failure to
    /// [`CliError::InvalidValue`].
    pub fn parsed<T: std::str::FromStr>(
        &self,
        name: &'static str,
        expected: &'static str,
    ) -> Result<Option<T>, CliError> {
        match self.value(name) {
            None => Ok(None),
            Some(text) => text.parse().map(Some).map_err(|_| CliError::InvalidValue {
                flag: name,
                value: text.to_string(),
                expected,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// The experiment binary's structured command line.
// ---------------------------------------------------------------------------

/// The `experiment` binary's full flag vocabulary.
const EXPERIMENT_FLAGS: &[FlagDef] = &[
    flag("--quick"),
    flag("--resume"),
    flag("--reaggregate"),
    flag("--print-spec"),
    flag("--fsync"),
    flag("--profile"),
    option("--spec"),
    option("--store"),
    option("--target-ci"),
    option("--ci-metric"),
    option("--max-replicates"),
    option("--connect"),
    option("--expect-hash"),
];

/// CI-driven sequential stopping, selected by `--target-ci`.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialArgs {
    /// Target worst-cell 95 % CI half-width.
    pub target_half_width: f64,
    /// Driving metric (`None` = the spec's, else the binary default).
    pub metric: Option<String>,
    /// Replicate cap (`None` = the spec's, else the binary default).
    pub max_replicates: Option<usize>,
}

/// A grid-executing invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Reuse persisted records instead of starting the default store afresh.
    pub resume: bool,
    /// Custom JSONL store (`None` = the binary's default store).
    pub store: Option<String>,
    /// Sequential stopping, if `--target-ci` was given.
    pub sequential: Option<SequentialArgs>,
    /// fsync every store append (`--fsync`).
    pub fsync: bool,
    /// Enable the `caem_metrics::prof` time-breakdown profiler for the run
    /// (`--profile`).
    pub profile: bool,
}

/// The mutually exclusive modes of the `experiment` binary.  One value of
/// this enum is the whole story of an invocation: a mode carries exactly
/// the data meaningful to it, so contradictory flag combinations have no
/// representation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentMode {
    /// Simulate the grid in this process (fresh, resumed and/or
    /// sequential).
    Run(RunArgs),
    /// Rebuild the report offline from a JSONL store; simulates nothing.
    Reaggregate {
        /// Custom store path (`None` = the binary's default store).
        store: Option<String>,
    },
    /// Attach to a `caem-serve` daemon as a socket worker (no shared
    /// filesystem; jobs arrive over the wire).
    SocketWorker {
        /// The daemon address (`host:port`).
        addr: String,
        /// Refuse to work unless the daemon's active grid has this grid
        /// hash.
        expect_hash: Option<u64>,
        /// Print the worker's time breakdown when it exits (`--profile`).
        profile: bool,
    },
    /// Dump the canonical resolved spec as JSON; simulates nothing.
    PrintSpec,
}

/// The `experiment` binary's parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentCli {
    /// Positional seed override (`None` = the spec's `base_seed`, else the
    /// harness default).
    pub seed: Option<u64>,
    /// Reduced smoke grid.
    pub quick: bool,
    /// Grid definition file (`None` = the built-in `specs/zoo.json`).
    pub spec: Option<String>,
    /// What this invocation does.
    pub mode: ExperimentMode,
}

impl ExperimentCli {
    /// Parse the process command line (skipping the program name).
    pub fn from_env() -> Result<Self, CliError> {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse an explicit argument list (testable entry point).
    pub fn from_args<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let parsed = ParsedArgs::lex(args, EXPERIMENT_FLAGS)?;
        let mut positionals = parsed.positionals.iter();
        let seed = match positionals.next() {
            None => None,
            Some(text) => Some(text.parse().map_err(|_| CliError::InvalidValue {
                flag: "<seed>",
                value: text.clone(),
                expected: "an unsigned integer seed",
            })?),
        };
        if let Some(extra) = positionals.next() {
            return Err(CliError::UnexpectedPositional(extra.clone()));
        }

        // Exactly one mode selector may be present.
        let selectors: [(&'static str, bool); 3] = [
            ("--reaggregate", parsed.has("--reaggregate")),
            ("--connect", parsed.has("--connect")),
            ("--print-spec", parsed.has("--print-spec")),
        ];
        let mut selected: Option<&'static str> = None;
        for (name, present) in selectors {
            if present {
                if let Some(earlier) = selected {
                    return Err(CliError::ModeConflict(earlier, name));
                }
                selected = Some(name);
            }
        }

        let mode = match selected {
            Some("--connect") => {
                if let Some(extra) = parsed.positionals.first() {
                    return Err(CliError::UnexpectedPositional(extra.clone()));
                }
                let addr = parsed
                    .value("--connect")
                    .expect("lexer enforced the value")
                    .to_string();
                // A socket worker learns everything else (jobs, heartbeat
                // cadence) from the daemon's handshake and grants; every
                // other flag but the profiler switch would be silently
                // ignored.
                reject_all(
                    &parsed,
                    "socket-worker",
                    &[
                        "--resume",
                        "--store",
                        "--target-ci",
                        "--ci-metric",
                        "--max-replicates",
                        "--quick",
                        "--spec",
                        "--fsync",
                    ],
                )?;
                ExperimentMode::SocketWorker {
                    addr,
                    expect_hash: parsed.parsed("--expect-hash", "an unsigned integer hash")?,
                    profile: parsed.has("--profile"),
                }
            }
            Some("--reaggregate") => {
                reject_all(
                    &parsed,
                    "reaggregate",
                    &[
                        "--resume",
                        "--target-ci",
                        "--ci-metric",
                        "--max-replicates",
                        "--fsync",
                        "--profile",
                        "--expect-hash",
                    ],
                )?;
                ExperimentMode::Reaggregate {
                    store: parsed.value("--store").map(str::to_string),
                }
            }
            Some("--print-spec") => {
                reject_all(
                    &parsed,
                    "print-spec",
                    &[
                        "--resume",
                        "--store",
                        "--target-ci",
                        "--ci-metric",
                        "--max-replicates",
                        "--fsync",
                        "--profile",
                        "--expect-hash",
                    ],
                )?;
                ExperimentMode::PrintSpec
            }
            _ => {
                // The socket-worker vocabulary means nothing to a run.
                reject_all(&parsed, "run", &["--expect-hash"])?;
                let sequential = match parsed.parsed::<f64>("--target-ci", "a number")? {
                    Some(target_half_width) => Some(SequentialArgs {
                        target_half_width,
                        metric: parsed.value("--ci-metric").map(str::to_string),
                        max_replicates: parsed
                            .parsed("--max-replicates", "an integer >= 1")?
                            .map(require_at_least_one("--max-replicates"))
                            .transpose()?,
                    }),
                    None => {
                        for dependent in ["--ci-metric", "--max-replicates"] {
                            if parsed.has(dependent) {
                                return Err(CliError::Requires {
                                    flag: dependent,
                                    requires: "--target-ci",
                                });
                            }
                        }
                        None
                    }
                };
                ExperimentMode::Run(RunArgs {
                    resume: parsed.has("--resume"),
                    store: parsed.value("--store").map(str::to_string),
                    sequential,
                    fsync: parsed.has("--fsync"),
                    profile: parsed.has("--profile"),
                })
            }
        };
        Ok(ExperimentCli {
            seed,
            quick: parsed.has("--quick"),
            spec: parsed.value("--spec").map(str::to_string),
            mode,
        })
    }
}

/// Reject every flag of `flags` that is present, naming the selected mode.
fn reject_all(
    parsed: &ParsedArgs,
    mode: &'static str,
    flags: &[&'static str],
) -> Result<(), CliError> {
    for &name in flags {
        if parsed.has(name) {
            return Err(CliError::NotInMode { flag: name, mode });
        }
    }
    Ok(())
}

/// Parse a duration-in-seconds flag that must be positive and fit a
/// [`Duration`]: zero, negative, non-finite and overflowing values are all
/// [`CliError::InvalidValue`].
fn positive_seconds(parsed: &ParsedArgs, flag: &'static str) -> Result<Option<Duration>, CliError> {
    const EXPECTED: &str = "a positive number of seconds";
    let Some(secs) = parsed.parsed::<f64>(flag, EXPECTED)? else {
        return Ok(None);
    };
    match Duration::try_from_secs_f64(secs) {
        Ok(d) if !d.is_zero() => Ok(Some(d)),
        _ => Err(CliError::InvalidValue {
            flag,
            value: parsed.value(flag).unwrap_or_default().to_string(),
            expected: EXPECTED,
        }),
    }
}

/// Validator for count flags that must be ≥ 1.
fn require_at_least_one(flag: &'static str) -> impl Fn(usize) -> Result<usize, CliError> {
    move |n| {
        if n >= 1 {
            Ok(n)
        } else {
            Err(CliError::InvalidValue {
                flag,
                value: "0".to_string(),
                expected: "an integer >= 1",
            })
        }
    }
}

// ---------------------------------------------------------------------------
// caem-serve: daemon and client modes of the experiment service.
// ---------------------------------------------------------------------------

/// The `caem-serve` binary's flag vocabulary.
const SERVE_FLAGS: &[FlagDef] = &[
    option("--listen"),
    option("--store"),
    option("--shards"),
    option("--lease-ttl"),
    option("--submit"),
    option("--addr"),
    flag("--quick"),
    option("--seed"),
    flag("--status"),
    flag("--fetch"),
    option("--out"),
    option("--timeout"),
];

/// The mutually exclusive modes of the `caem-serve` binary.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMode {
    /// Run the daemon: listen for workers and clients.
    Daemon {
        /// Listen address (`host:port`).
        listen: String,
        /// The store directory grids are journaled under (`--store`,
        /// default `caem-serve-store`).
        store: String,
        /// `--shards` and `--lease-ttl` over the [`ServiceConfig`]
        /// defaults.
        config: ServiceConfig,
    },
    /// Submit a grid-spec file to a daemon.
    Submit {
        /// Daemon address.
        addr: String,
        /// Path of the grid-spec JSON document.
        file: String,
        /// Resolve the spec in quick mode.
        quick: bool,
        /// Default seed when the document pins no `base_seed`.
        seed: Option<u64>,
    },
    /// Print a daemon's progress snapshot.
    Status {
        /// Daemon address.
        addr: String,
    },
    /// Fetch the report of the most recently submitted grid.
    Fetch {
        /// Daemon address.
        addr: String,
        /// Write the report here instead of stdout.
        out: Option<String>,
        /// Give up after this long (default 60 s).
        timeout: Option<Duration>,
    },
}

/// Where `caem-serve --listen` journals its grids without `--store`: a
/// directory in the working directory, as `experiment` writes its default
/// store there.
const DEFAULT_SERVE_STORE: &str = "caem-serve-store";

/// The `caem-serve` binary's parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCli {
    /// What this invocation does.
    pub mode: ServeMode,
}

impl ServeCli {
    /// Parse the process command line (skipping the program name).
    pub fn from_env() -> Result<Self, CliError> {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse an explicit argument list (testable entry point).
    pub fn from_args<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let parsed = ParsedArgs::lex(args, SERVE_FLAGS)?;
        if let Some(extra) = parsed.positionals.first() {
            return Err(CliError::UnexpectedPositional(extra.clone()));
        }
        let selectors: [(&'static str, bool); 4] = [
            ("--listen", parsed.has("--listen")),
            ("--submit", parsed.has("--submit")),
            ("--status", parsed.has("--status")),
            ("--fetch", parsed.has("--fetch")),
        ];
        let mut selected: Option<&'static str> = None;
        for (name, present) in selectors {
            if present {
                if let Some(earlier) = selected {
                    return Err(CliError::ModeConflict(earlier, name));
                }
                selected = Some(name);
            }
        }
        let addr_for = |mode: &'static str| -> Result<String, CliError> {
            parsed
                .value("--addr")
                .map(str::to_string)
                .ok_or(CliError::Requires {
                    flag: mode,
                    requires: "--addr",
                })
        };
        let mode = match selected {
            Some("--listen") => {
                reject_all(
                    &parsed,
                    "daemon",
                    &["--addr", "--quick", "--seed", "--out", "--timeout"],
                )?;
                let defaults = ServiceConfig::default();
                let config = ServiceConfig {
                    shards_per_grid: parsed
                        .parsed("--shards", "an integer >= 1")?
                        .map(require_at_least_one("--shards"))
                        .transpose()?
                        .unwrap_or(defaults.shards_per_grid),
                    lease_ttl: positive_seconds(&parsed, "--lease-ttl")?
                        .unwrap_or(defaults.lease_ttl),
                };
                ServeMode::Daemon {
                    listen: parsed
                        .value("--listen")
                        .expect("lexer enforced the value")
                        .to_string(),
                    store: parsed
                        .value("--store")
                        .unwrap_or(DEFAULT_SERVE_STORE)
                        .to_string(),
                    config,
                }
            }
            Some("--submit") => {
                reject_all(
                    &parsed,
                    "submit",
                    &["--store", "--shards", "--lease-ttl", "--out", "--timeout"],
                )?;
                ServeMode::Submit {
                    addr: addr_for("--submit")?,
                    file: parsed
                        .value("--submit")
                        .expect("lexer enforced the value")
                        .to_string(),
                    quick: parsed.has("--quick"),
                    seed: parsed.parsed("--seed", "an unsigned integer seed")?,
                }
            }
            Some("--status") => {
                reject_all(
                    &parsed,
                    "status",
                    &[
                        "--store",
                        "--shards",
                        "--lease-ttl",
                        "--quick",
                        "--seed",
                        "--out",
                        "--timeout",
                    ],
                )?;
                ServeMode::Status {
                    addr: addr_for("--status")?,
                }
            }
            Some("--fetch") => {
                reject_all(
                    &parsed,
                    "fetch",
                    &["--store", "--shards", "--lease-ttl", "--quick", "--seed"],
                )?;
                ServeMode::Fetch {
                    addr: addr_for("--fetch")?,
                    out: parsed.value("--out").map(str::to_string),
                    timeout: positive_seconds(&parsed, "--timeout")?,
                }
            }
            _ => {
                return Err(CliError::Requires {
                    flag: "caem-serve",
                    requires: "one of --listen, --submit, --status, --fetch",
                })
            }
        };
        Ok(ServeCli { mode })
    }
}

// ---------------------------------------------------------------------------
// `paper` and `ablation`: positional seed + --quick, nothing else.
// ---------------------------------------------------------------------------

/// The `paper` and `ablation` binaries' command line (and the start of
/// `netperf`'s): an optional positional seed and `--quick`.  Anything
/// else — in particular a misspelled flag — is a typed error instead of
/// being silently ignored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigureArgs {
    /// The seed (defaults to [`crate::DEFAULT_SEED`]).
    pub seed: u64,
    /// Reduced smoke scenario.
    pub quick: bool,
}

impl FigureArgs {
    /// Parse an explicit argument list (testable entry point).
    pub fn from_args<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let parsed = ParsedArgs::lex(args, &[flag("--quick")])?;
        let mut positionals = parsed.positionals.iter();
        let seed = match positionals.next() {
            None => crate::DEFAULT_SEED,
            Some(text) => text.parse().map_err(|_| CliError::InvalidValue {
                flag: "<seed>",
                value: text.clone(),
                expected: "an unsigned integer seed",
            })?,
        };
        if let Some(extra) = positionals.next() {
            return Err(CliError::UnexpectedPositional(extra.clone()));
        }
        Ok(FigureArgs {
            seed,
            quick: parsed.has("--quick"),
        })
    }

    /// Parse the process command line, printing the error plus a usage line
    /// and exiting 2 on a mistake.
    pub fn from_env_or_exit(binary: &str) -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\nusage: {binary} [seed] [--quick]");
            std::process::exit(2);
        })
    }
}

// ---------------------------------------------------------------------------
// netperf: the figure vocabulary plus timing and profiling options.
// ---------------------------------------------------------------------------

/// The `netperf` binary's command line: the figure vocabulary
/// (`[seed] [--quick]`) plus `--repeats N` (rten-bench-style
/// min/mean/median/max/var timing statistics per scenario), `--profile`
/// (per-subsystem time-breakdown tables and the `time_breakdown` JSON
/// section), `--trace-out FILE` (Chrome trace-event export of the first
/// repeat of the first scenario; requires `--profile`).
#[derive(Debug, Clone, PartialEq)]
pub struct NetperfArgs {
    /// The seed (defaults to [`crate::DEFAULT_SEED`]).
    pub seed: u64,
    /// Reduced smoke scenario.
    pub quick: bool,
    /// Enable the time-breakdown profiler over the scenario sweep.
    pub profile: bool,
    /// Timed repeats per scenario (defaults to 1, at most [`MAX_REPEATS`];
    /// the simulation output is identical across repeats — only the wall
    /// clocks differ).
    pub repeats: Option<usize>,
    /// Write a Chrome trace-event JSON of one run here (needs `--profile`).
    pub trace_out: Option<String>,
}

/// The most `--repeats` `netperf` accepts: a thousand timed repeats of the
/// full ~5 s sweep is already over an hour, so a larger count is a typo,
/// not a measurement.
pub const MAX_REPEATS: usize = 1_000;

impl NetperfArgs {
    /// Parse an explicit argument list (testable entry point).
    pub fn from_args<I>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let parsed = ParsedArgs::lex(
            args,
            &[
                flag("--quick"),
                flag("--profile"),
                option("--repeats"),
                option("--trace-out"),
            ],
        )?;
        let mut positionals = parsed.positionals.iter();
        let seed = match positionals.next() {
            None => crate::DEFAULT_SEED,
            Some(text) => text.parse().map_err(|_| CliError::InvalidValue {
                flag: "<seed>",
                value: text.clone(),
                expected: "an unsigned integer seed",
            })?,
        };
        if let Some(extra) = positionals.next() {
            return Err(CliError::UnexpectedPositional(extra.clone()));
        }
        let profile = parsed.has("--profile");
        const REPEATS: &str = "an integer from 1 to 1000";
        let repeats = parsed.parsed::<usize>("--repeats", REPEATS)?;
        if let Some(n) = repeats.filter(|n| !(1..=MAX_REPEATS).contains(n)) {
            return Err(CliError::InvalidValue {
                flag: "--repeats",
                value: n.to_string(),
                expected: REPEATS,
            });
        }
        if parsed.has("--trace-out") && !profile {
            return Err(CliError::Requires {
                flag: "--trace-out",
                requires: "--profile",
            });
        }
        Ok(NetperfArgs {
            seed,
            quick: parsed.has("--quick"),
            profile,
            repeats,
            trace_out: parsed.value("--trace-out").map(str::to_string),
        })
    }

    /// Parse the process command line, printing the error plus a usage line
    /// and exiting 2 on a mistake.
    pub fn from_env_or_exit(binary: &str) -> Self {
        Self::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!(
                "error: {e}\nusage: {binary} [seed] [--quick] [--repeats N] \
                 [--profile [--trace-out FILE]]"
            );
            std::process::exit(2);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parse(list: &[&str]) -> Result<ExperimentCli, CliError> {
        ExperimentCli::from_args(args(list))
    }

    #[test]
    fn plain_run_parses_to_local_backend() {
        let cli = parse(&["--quick"]).unwrap();
        assert!(cli.quick);
        assert_eq!(cli.seed, None);
        assert_eq!(
            cli.mode,
            ExperimentMode::Run(RunArgs {
                resume: false,
                store: None,
                sequential: None,
                fsync: false,
                profile: false,
            })
        );
    }

    #[test]
    fn profile_flag_parses_in_run_mode_only() {
        // Of the local modes; a socket worker takes it as well (see
        // `socket_worker_mode_parses_and_rejects_run_flags`).
        match parse(&["--quick", "--profile"]).unwrap().mode {
            ExperimentMode::Run(run) => assert!(run.profile),
            other => panic!("expected run mode, got {other:?}"),
        }
        assert_eq!(
            parse(&["--reaggregate", "--profile"]),
            Err(CliError::NotInMode {
                flag: "--profile",
                mode: "reaggregate"
            })
        );
        assert_eq!(
            parse(&["--print-spec", "--profile"]),
            Err(CliError::NotInMode {
                flag: "--profile",
                mode: "print-spec"
            })
        );
    }

    #[test]
    fn equals_and_space_forms_are_equivalent() {
        let a = parse(&["--target-ci", "0.5", "--store", "/tmp/w.jsonl"]).unwrap();
        let b = parse(&["--target-ci=0.5", "--store=/tmp/w.jsonl"]).unwrap();
        assert_eq!(a, b);
        match a.mode {
            ExperimentMode::Run(run) => {
                assert_eq!(run.sequential.map(|s| s.target_half_width), Some(0.5));
                assert_eq!(run.store.as_deref(), Some("/tmp/w.jsonl"));
            }
            other => panic!("expected run mode, got {other:?}"),
        }
    }

    #[test]
    fn unknown_and_misspelled_flags_are_rejected() {
        assert_eq!(
            parse(&["--quik"]),
            Err(CliError::UnknownFlag("--quik".to_string()))
        );
        assert_eq!(
            parse(&["--replicats=4"]),
            Err(CliError::UnknownFlag("--replicats".to_string()))
        );
    }

    #[test]
    fn a_following_flag_is_not_a_value() {
        assert_eq!(
            parse(&["--store", "--resume"]),
            Err(CliError::MissingValue("--store"))
        );
    }

    #[test]
    fn contradictory_combinations_are_typed_errors() {
        assert_eq!(
            parse(&["--reaggregate", "--resume"]),
            Err(CliError::NotInMode {
                flag: "--resume",
                mode: "reaggregate"
            })
        );
        // The retired file-bus and in-process-fleet flags are unknown, not
        // ignored.  (Spelled in two pieces so a search for live uses of
        // them comes up empty.)
        for removed in [
            concat!("--worker", "-shard"),
            concat!("--distrib", "-dir"),
            concat!("--work", "ers"),
            concat!("--cha", "os"),
        ] {
            assert_eq!(
                parse(&[removed, "2"]),
                Err(CliError::UnknownFlag(removed.to_string()))
            );
        }
        assert_eq!(
            parse(&[concat!("--str", "ict")]),
            Err(CliError::UnknownFlag(concat!("--str", "ict").to_string()))
        );
        assert_eq!(
            parse(&["--ci-metric", "collisions"]),
            Err(CliError::Requires {
                flag: "--ci-metric",
                requires: "--target-ci"
            })
        );
        assert_eq!(
            parse(&["--reaggregate", "--print-spec"]),
            Err(CliError::ModeConflict("--reaggregate", "--print-spec"))
        );
    }

    #[test]
    fn worker_mode_rejects_grid_shaping_flags() {
        // A worker learns its grid from the daemon's grants: every grid- or
        // run-shaping flag would be silently ignored, so each is rejected.
        for flag in [
            &["--quick"][..],
            &["--spec", "specs/zoo.json"],
            &["--store", "w.jsonl"],
            &["--resume"],
            &["--target-ci", "0.1"],
        ] {
            let mut argv = vec!["--connect", "127.0.0.1:7171"];
            argv.extend_from_slice(flag);
            assert_eq!(
                parse(&argv),
                Err(CliError::NotInMode {
                    flag: flag[0],
                    mode: "socket-worker"
                })
            );
        }
        // A positional seed would be silently ignored too.
        assert_eq!(
            parse(&["999", "--connect", "127.0.0.1:7171"]),
            Err(CliError::UnexpectedPositional("999".to_string()))
        );
    }

    #[test]
    fn sequential_run_collects_its_knobs() {
        let cli = parse(&[
            "--target-ci=0.01",
            "--ci-metric",
            "collisions",
            "--max-replicates=24",
            "--resume",
        ])
        .unwrap();
        match cli.mode {
            ExperimentMode::Run(run) => {
                assert!(run.resume);
                assert_eq!(
                    run.sequential,
                    Some(SequentialArgs {
                        target_half_width: 0.01,
                        metric: Some("collisions".to_string()),
                        max_replicates: Some(24),
                    })
                );
            }
            other => panic!("expected run mode, got {other:?}"),
        }
    }

    #[test]
    fn positional_seed_and_spec_file_parse() {
        let cli = parse(&["12345", "--spec", "specs/zoo.json"]).unwrap();
        assert_eq!(cli.seed, Some(12345));
        assert_eq!(cli.spec.as_deref(), Some("specs/zoo.json"));
        assert_eq!(
            parse(&["12345", "extra"]),
            Err(CliError::UnexpectedPositional("extra".to_string()))
        );
    }

    #[test]
    fn fsync_parses_in_run_mode_only() {
        for argv in [&["--fsync"][..], &["--fsync", "--resume"][..]] {
            match parse(argv).unwrap().mode {
                ExperimentMode::Run(run) => assert!(run.fsync),
                other => panic!("expected run mode, got {other:?}"),
            }
        }
        // Durability is meaningless off the run path.
        for (argv, mode) in [
            (&["--reaggregate", "--fsync"][..], "reaggregate"),
            (&["--print-spec", "--fsync"][..], "print-spec"),
            (
                &["--connect", "127.0.0.1:7171", "--fsync"][..],
                "socket-worker",
            ),
        ] {
            assert_eq!(
                parse(argv),
                Err(CliError::NotInMode {
                    flag: "--fsync",
                    mode
                })
            );
        }
    }

    #[test]
    fn socket_worker_mode_parses_and_rejects_run_flags() {
        let cli = parse(&["--connect", "127.0.0.1:7171"]).unwrap();
        assert_eq!(
            cli.mode,
            ExperimentMode::SocketWorker {
                addr: "127.0.0.1:7171".to_string(),
                expect_hash: None,
                profile: false,
            }
        );
        let cli = parse(&["--connect=127.0.0.1:7171", "--expect-hash=42"]).unwrap();
        assert_eq!(
            cli.mode,
            ExperimentMode::SocketWorker {
                addr: "127.0.0.1:7171".to_string(),
                expect_hash: Some(42),
                profile: false,
            }
        );
        // A worker process runs jobs, so it takes the profiler switch too.
        let cli = parse(&["--connect", "127.0.0.1:7171", "--profile"]).unwrap();
        assert_eq!(
            cli.mode,
            ExperimentMode::SocketWorker {
                addr: "127.0.0.1:7171".to_string(),
                expect_hash: None,
                profile: true,
            }
        );
        assert_eq!(
            parse(&["--connect", "127.0.0.1:7171", "--quick"]),
            Err(CliError::NotInMode {
                flag: "--quick",
                mode: "socket-worker"
            })
        );
        assert_eq!(
            parse(&["--connect", "127.0.0.1:7171", "--reaggregate"]),
            Err(CliError::ModeConflict("--reaggregate", "--connect"))
        );
        // The socket vocabulary is meaningless to the file-based modes.
        assert_eq!(
            parse(&["--expect-hash", "1"]),
            Err(CliError::NotInMode {
                flag: "--expect-hash",
                mode: "run"
            })
        );
        // Retired flags are unknown: version skew is tested in-process, and
        // --print-spec is the one way to list a grid's scenarios.
        for retired in ["--protocol", "--list-scenarios"] {
            assert_eq!(
                parse(&[retired, "1"]),
                Err(CliError::UnknownFlag(retired.to_string()))
            );
        }
    }

    #[test]
    fn lease_ttl_is_unknown_to_experiment() {
        // Lease timing is daemon configuration (`caem-serve --lease-ttl`);
        // no grid run, local or distributed, takes it.
        for argv in [
            &["--lease-ttl=30"][..],
            &["--resume", "--lease-ttl=30"],
            &["--connect", "127.0.0.1:7171", "--lease-ttl", "2"],
        ] {
            assert_eq!(
                parse(argv),
                Err(CliError::UnknownFlag("--lease-ttl".to_string()))
            );
        }
    }

    #[test]
    fn serve_cli_parses_its_four_modes() {
        let daemon = ServeCli::from_args(args(&[
            "--listen",
            "127.0.0.1:7171",
            "--shards=4",
            "--lease-ttl=7.5",
        ]))
        .unwrap();
        assert_eq!(
            daemon.mode,
            ServeMode::Daemon {
                listen: "127.0.0.1:7171".to_string(),
                store: DEFAULT_SERVE_STORE.to_string(),
                config: ServiceConfig {
                    shards_per_grid: 4,
                    lease_ttl: Duration::from_millis(7500),
                },
            }
        );
        let daemon =
            ServeCli::from_args(args(&["--listen=127.0.0.1:0", "--store", "/tmp/grids"])).unwrap();
        assert!(matches!(
            daemon.mode,
            ServeMode::Daemon { store, .. } if store == "/tmp/grids"
        ));
        let submit = ServeCli::from_args(args(&[
            "--submit",
            "specs/zoo.json",
            "--addr",
            "127.0.0.1:7171",
            "--quick",
            "--seed=7",
        ]))
        .unwrap();
        assert_eq!(
            submit.mode,
            ServeMode::Submit {
                addr: "127.0.0.1:7171".to_string(),
                file: "specs/zoo.json".to_string(),
                quick: true,
                seed: Some(7),
            }
        );
        let status = ServeCli::from_args(args(&["--status", "--addr=127.0.0.1:7171"])).unwrap();
        assert_eq!(
            status.mode,
            ServeMode::Status {
                addr: "127.0.0.1:7171".to_string()
            }
        );
        let fetch = ServeCli::from_args(args(&[
            "--fetch",
            "--addr=127.0.0.1:7171",
            "--out",
            "/tmp/report.json",
            "--timeout=120",
        ]))
        .unwrap();
        assert_eq!(
            fetch.mode,
            ServeMode::Fetch {
                addr: "127.0.0.1:7171".to_string(),
                out: Some("/tmp/report.json".to_string()),
                timeout: Some(Duration::from_secs(120)),
            }
        );
    }

    #[test]
    fn serve_cli_rejects_cross_mode_and_missing_flags() {
        assert_eq!(
            ServeCli::from_args(args(&["--status"])),
            Err(CliError::Requires {
                flag: "--status",
                requires: "--addr"
            })
        );
        assert_eq!(
            ServeCli::from_args(args(&["--listen", "x:1", "--fetch"])),
            Err(CliError::ModeConflict("--listen", "--fetch"))
        );
        assert_eq!(
            ServeCli::from_args(args(&["--listen", "x:1", "--quick"])),
            Err(CliError::NotInMode {
                flag: "--quick",
                mode: "daemon"
            })
        );
        // The store directory is the daemon's own.
        assert_eq!(
            ServeCli::from_args(args(&["--fetch", "--addr=x:1", "--store=d"])),
            Err(CliError::NotInMode {
                flag: "--store",
                mode: "fetch"
            })
        );
        assert_eq!(
            ServeCli::from_args(args(&[])),
            Err(CliError::Requires {
                flag: "caem-serve",
                requires: "one of --listen, --submit, --status, --fetch"
            })
        );
        // The heartbeat is derived from the lease TTL, not set.
        assert_eq!(
            ServeCli::from_args(args(&["--listen", "x:1", "--heartbeat=1"])),
            Err(CliError::UnknownFlag("--heartbeat".to_string()))
        );
        // A zero TTL, seconds that overflow a `Duration`, or that are not
        // finite, are typed errors, never a panic in the conversion.
        for (argv, flag) in [
            (&["--listen", "x:1", "--lease-ttl=0"][..], "--lease-ttl"),
            (&["--listen", "x:1", "--lease-ttl=1e30"], "--lease-ttl"),
            (&["--listen", "x:1", "--lease-ttl=inf"], "--lease-ttl"),
            (&["--fetch", "--addr=x:1", "--timeout=1e300"], "--timeout"),
            (&["--fetch", "--addr=x:1", "--timeout=NaN"], "--timeout"),
        ] {
            assert_eq!(
                ServeCli::from_args(args(argv)),
                Err(CliError::InvalidValue {
                    flag,
                    value: argv[argv.len() - 1].split_once('=').unwrap().1.to_string(),
                    expected: "a positive number of seconds",
                })
            );
        }
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        assert_eq!(
            parse(&["--quick", "--quick"]),
            Err(CliError::DuplicateFlag("--quick"))
        );
    }

    #[test]
    fn figure_args_parse_seed_and_quick_only() {
        let fa = FigureArgs::from_args(args(&["777", "--quick"])).unwrap();
        assert_eq!(fa.seed, 777);
        assert!(fa.quick);
        assert_eq!(
            FigureArgs::from_args(args(&[])).unwrap().seed,
            crate::DEFAULT_SEED
        );
        assert_eq!(
            FigureArgs::from_args(args(&["--resume"])),
            Err(CliError::UnknownFlag("--resume".to_string()))
        );
    }

    #[test]
    fn netperf_args_parse_profile_vocabulary() {
        let na = NetperfArgs::from_args(args(&[
            "--quick",
            "--profile",
            "--repeats",
            "5",
            "--trace-out",
            "/tmp/trace.json",
        ]))
        .unwrap();
        assert!(na.profile);
        assert_eq!(na.repeats, Some(5));
        assert_eq!(na.trace_out.as_deref(), Some("/tmp/trace.json"));
        // --repeats stands alone (timing stats without the profiler).
        let na = NetperfArgs::from_args(args(&["--repeats=3"])).unwrap();
        assert_eq!(na.repeats, Some(3));
        assert!(!na.profile);
        assert!(matches!(
            NetperfArgs::from_args(args(&["--repeats", "0"])),
            Err(CliError::InvalidValue {
                flag: "--repeats",
                ..
            })
        ));
        // The cap is inclusive; one past it is refused before anything is
        // sized from the count.
        let na = NetperfArgs::from_args(args(&["--repeats", "1000"])).unwrap();
        assert_eq!(na.repeats, Some(MAX_REPEATS));
        for too_many in ["1001", "1000000000000000000"] {
            assert_eq!(
                NetperfArgs::from_args(args(&["--quick", "--repeats", too_many])),
                Err(CliError::InvalidValue {
                    flag: "--repeats",
                    value: too_many.to_string(),
                    expected: "an integer from 1 to 1000",
                })
            );
        }
        // The plain figure form parses; `--threads` is not a netperf flag.
        let na = NetperfArgs::from_args(args(&["777"])).unwrap();
        assert_eq!((na.seed, na.quick, na.profile), (777, false, false));
        assert_eq!(
            NetperfArgs::from_args(args(&["--threads", "4"])),
            Err(CliError::UnknownFlag("--threads".to_string()))
        );
        // Trace export is meaningless without profiling.
        assert_eq!(
            NetperfArgs::from_args(args(&["--trace-out", "/tmp/t.json"])),
            Err(CliError::Requires {
                flag: "--trace-out",
                requires: "--profile"
            })
        );
    }
}
