//! Command parsing and execution, separated from `main` for testability.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::slice::Iter;
use std::str::FromStr;

use cpssec_analysis::consequence::analyze_all;
use cpssec_analysis::render::text_table;
use cpssec_analysis::{attribute_rows, render, report, AssociationMap, SystemPosture};
use cpssec_attackdb::seed::seed_corpus;
use cpssec_attackdb::synth::{
    delta_batch, first_serial_above, stream_into, SynthSpec, LAST_DELTA_SERIAL,
};
use cpssec_attackdb::Corpus;
use cpssec_model::{Fidelity, SystemModel};
use cpssec_scada::campaign::family;
use cpssec_scada::{attacks, faults, run_campaign, CampaignSpec, ScadaConfig, ScadaHarness};
use cpssec_search::{apply_delta, build_delta, compact_verified, inspect_delta};
use cpssec_search::{FilterPipeline, SearchEngine};
const USAGE: &str = "usage:
  cpssec table1 [--scale S] [--corpus FILE.jsonl]
  cpssec associate <model.graphml|scada> [--fidelity conceptual|architectural|implementation]
                   [--scale S] [--corpus FILE.jsonl] [--top K]
  cpssec figure [--scale S] [--corpus FILE.jsonl]
  cpssec report [--scale S] [--corpus FILE.jsonl] [--simulate]
  cpssec simulate <scenario|nominal> [--ticks N]
  cpssec fleet [--scenarios N] [--seed S] [--threads N] [--ticks N]
               [--classes a,b,c] [--json]
  cpssec campaign <scada|water> [--seed S] [--threads N] [--json] [--csv]
  cpssec scenarios
  cpssec export-model [--fidelity LEVEL]
  cpssec export-corpus [--scale S]
  cpssec json [--scale S] [--corpus FILE.jsonl] [--fidelity LEVEL]
  cpssec snapshot build <FILE.cpsnap> [--scale S] [--corpus FILE.jsonl]
  cpssec snapshot inspect <FILE.cpsnap> [--json]
  cpssec snapshot verify <FILE.cpsnap>
  cpssec delta build <PARENT.cpsnap|.cpsdelta> <OUT.cpsdelta>
                     [--records N] [--serial K] [--seed S]
  cpssec delta inspect <FILE.cpsdelta> [--json]
  cpssec delta apply <BASE.cpsnap> <FILE.cpsdelta>... [--out FILE.cpsnap]
  cpssec delta compact <BASE.cpsnap> <FILE.cpsdelta>... [--out FILE.cpsnap]
  cpssec serve [--addr HOST:PORT] [--workers N] [--scale S] [--corpus FILE.jsonl]
               [--snapshot FILE.cpsnap] [--slo FILE.toml] [--tick-ms N]
               [--max-conns N] [--queue-depth N]
  cpssec load [--addr HOST:PORT] [--clients N] [--requests M]
  cpssec profile [--hz N] [--flame FILE.json] <command> [args...]
  cpssec flight inspect <FILE.cpsflight>
  cpssec help

the corpus defaults to the built-in seed + synthetic corpus at --scale
(0 < S <= 1000; 1000 is about 32M records);
--corpus loads a JSON Lines corpus (see cpssec_attackdb::jsonl) instead;
--snapshot warm-starts `serve` from a binary snapshot (see `snapshot build`);
--slo loads latency/error objectives for `serve` (the CPSSEC_SLO env var
holds the same syntax with `;` for newlines); --tick-ms sets the telemetry
tick interval (default 1000); --max-conns caps concurrent connections and
--queue-depth bounds each route's outstanding requests (excess traffic is
shed with 429 + Retry-After, visible at /metrics as shed_total);
--trace FILE.json (any command) writes a Chrome trace of the pipeline
stages, viewable in Perfetto or chrome://tracing;
`associate scada` uses the built-in SCADA testbed model;
`fleet` runs a Monte-Carlo attack campaign on the centrifuge testbed —
deterministic per --seed at any --threads count; --classes restricts the
sampled attack classes (see `cpssec fleet --classes nope` for names);
`campaign` compiles the exploit chains matched against a testbed model
into multi-stage attack campaigns on the simulator and scores every
chain as reached-hazard, contained, or textual-only — deterministic per
--seed at any --threads count; --csv dumps the per-chain records;
`delta build` emits a synthetic `.cpsdelta` batch (deterministic per
--seed/--serial) chained onto the parent snapshot or delta; `delta apply`
grows a snapshot in place without an index rebuild, `delta compact`
additionally proves the grown snapshot byte-identical to a
rebuild-from-scratch before writing it;
`profile` runs any other cpssec command under the continuous sampling
profiler (default 99 Hz) and prints a top-stages self-time table;
--flame additionally writes a d3-flamegraph JSON of the sampled stacks;
`flight inspect` verifies a `.cpsflight` black-box dump (written by a
serving process on SLO alert, panic, SIGUSR1, or POST /debug/flight/dump)
and renders its per-thread event timeline.";

/// Largest accepted `--scale`. The synthetic record count grows linearly
/// with it (about 32M records here); past this a run cannot finish, and
/// at `inf` the count saturates.
const MAX_SCALE: f64 = 1000.0;

/// Parsed global options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Synthetic corpus scale.
    pub scale: f64,
    /// Fidelity for model-side operations.
    pub fidelity: Fidelity,
    /// Per-family result cap for `associate`.
    pub top: Option<usize>,
    /// Run the simulation inside `report`.
    pub simulate: bool,
    /// Tick budget for `simulate`.
    pub ticks: u64,
    /// Scenario count for `fleet`.
    pub scenarios: u64,
    /// Campaign seed for `fleet`.
    pub seed: u64,
    /// Worker threads for `fleet` (defaults to the core count).
    pub threads: Option<usize>,
    /// Comma-separated attack classes for `fleet`.
    pub classes: Option<String>,
    /// Emit the JSON artifact instead of the text table (`fleet`,
    /// `campaign`).
    pub json: bool,
    /// Emit the per-chain CSV records instead of the table (`campaign`).
    pub csv: bool,
    /// Path to a JSON Lines corpus replacing the built-in one.
    pub corpus_path: Option<String>,
    /// Path to a `.cpsnap` snapshot for `serve` warm start.
    pub snapshot_path: Option<String>,
    /// Path to an SLO config for `serve` (overrides `CPSSEC_SLO`).
    pub slo_path: Option<String>,
    /// Telemetry tick interval for `serve`, in milliseconds.
    pub tick_ms: Option<u64>,
    /// Concurrent-connection cap for `serve`.
    pub max_conns: Option<u64>,
    /// Per-route outstanding-request budget for `serve`.
    pub queue_depth: Option<u64>,
    /// Path to write a Chrome-trace JSON of the run's pipeline spans.
    pub trace_path: Option<String>,
    /// Bind/connect address for `serve` and `load`.
    pub addr: String,
    /// Worker threads for `serve`.
    pub workers: usize,
    /// Concurrent clients for `load`.
    pub clients: usize,
    /// Requests per client for `load`.
    pub requests: usize,
    /// Record count for `delta build`.
    pub records: usize,
    /// Batch serial for `delta build` (its append-only id block); without
    /// one, a `.cpsnap` parent takes the smallest serial that applies.
    pub serial: Option<u32>,
    /// Output path for `delta apply`/`delta compact` (defaults to the
    /// base snapshot, growing it in place).
    pub out_path: Option<String>,
    /// Positional arguments.
    pub positional: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.05,
            fidelity: Fidelity::Implementation,
            top: None,
            simulate: false,
            ticks: 12_000,
            scenarios: 200,
            seed: 42,
            threads: None,
            classes: None,
            json: false,
            csv: false,
            corpus_path: None,
            snapshot_path: None,
            slo_path: None,
            tick_ms: None,
            max_conns: None,
            queue_depth: None,
            trace_path: None,
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            clients: 4,
            requests: 16,
            records: 1_000,
            serial: None,
            out_path: None,
            positional: Vec::new(),
        }
    }
}

/// Takes the value after `flag`, or fails with "`flag` needs `what`".
fn flag_value<'a>(args: &mut Iter<'a, String>, flag: &str, what: &str) -> Result<&'a str, String> {
    args.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs {what}"))
}

/// Parses the `value` given to `flag` and accepts it if `ok` holds, or
/// fails with "invalid NAME `value`", NAME being the flag without `--`.
fn parse_value<T: FromStr>(
    flag: &str,
    value: &str,
    ok: impl FnOnce(&T) -> bool,
) -> Result<T, String> {
    let name = flag.trim_start_matches('-');
    value
        .parse()
        .ok()
        .filter(ok)
        .ok_or_else(|| format!("invalid {name} `{value}`"))
}

impl Options {
    /// Positional argument `index`, or the one-line `missing` error.
    fn arg(&self, index: usize, missing: &str) -> Result<&str, String> {
        let arg = self.positional.get(index).map(String::as_str);
        arg.ok_or_else(|| missing.to_owned())
    }
}

fn positive<T: PartialOrd + Default>(n: &T) -> bool {
    *n > T::default()
}

/// [`parse_value`] for a count in `1..=10000`, naming that range when
/// the value is out of it.
fn parse_count<T: FromStr + PartialOrd + From<u16>>(flag: &str, value: &str) -> Result<T, String> {
    parse_value(flag, value, |n| (T::from(1)..=T::from(10_000)).contains(n))
        .map_err(|e| format!("{e} (expected 1..=10000)"))
}

/// Parses everything after the subcommand.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        let mut value = |what| flag_value(&mut iter, flag, what);
        match flag {
            "--scale" => {
                // NaN and inf fail the bound; -inf is "not positive" below.
                options.scale = parse_value(flag, value("a value")?, |s: &f64| *s <= MAX_SCALE)?;
                if options.scale <= 0.0 {
                    return Err("scale must be positive".into());
                }
            }
            "--fidelity" => options.fidelity = parse_value(flag, value("a value")?, |_| true)?,
            "--top" => options.top = Some(parse_value(flag, value("a value")?, |_| true)?),
            "--ticks" => options.ticks = parse_value(flag, value("a value")?, positive)?,
            "--simulate" => options.simulate = true,
            "--scenarios" => options.scenarios = parse_value(flag, value("a value")?, positive)?,
            "--seed" => options.seed = parse_value(flag, value("a value")?, |_| true)?,
            "--threads" => options.threads = Some(parse_value(flag, value("a value")?, positive)?),
            "--classes" => options.classes = Some(value("a value")?.to_owned()),
            "--json" => options.json = true,
            "--csv" => options.csv = true,
            "--corpus" => options.corpus_path = Some(value("a path")?.to_owned()),
            "--snapshot" => options.snapshot_path = Some(value("a path")?.to_owned()),
            "--slo" => options.slo_path = Some(value("a path")?.to_owned()),
            "--tick-ms" => options.tick_ms = Some(parse_value(flag, value("a value")?, positive)?),
            "--max-conns" => {
                options.max_conns = Some(parse_value(flag, value("a value")?, positive)?)
            }
            "--queue-depth" => {
                options.queue_depth = Some(parse_value(flag, value("a value")?, positive)?)
            }
            "--trace" => options.trace_path = Some(value("a path")?.to_owned()),
            "--addr" => options.addr = value("a HOST:PORT value")?.to_owned(),
            "--workers" => options.workers = parse_value(flag, value("a value")?, positive)?,
            "--clients" => options.clients = parse_value(flag, value("a value")?, positive)?,
            "--requests" => options.requests = parse_value(flag, value("a value")?, positive)?,
            "--records" => options.records = parse_count(flag, value("a value")?)?,
            "--serial" => {
                options.serial = Some(parse_value(flag, value("a value")?, |&serial| {
                    serial <= LAST_DELTA_SERIAL
                })?);
            }
            "--out" => options.out_path = Some(value("a path")?.to_owned()),
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            positional => options.positional.push(positional.to_owned()),
        }
    }
    Ok(options)
}

/// Reads `path` with `read` (`fs::read` or `fs::read_to_string`); every
/// command's read failure is this one-line `cannot read` error.
fn read_file<'a, T>(path: &'a str, read: fn(&'a str) -> std::io::Result<T>) -> Result<T, String> {
    read(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Writes `bytes` to `path` through a synced temp file in the same
/// directory that is then renamed over `path`, so a kill or a full disk
/// mid-write leaves the old file or the new one, never a truncated mix.
/// Existing non-regular targets (`/dev/stdout`, a directory) get a plain
/// write, as do paths without a file name.
fn write_file(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    // Resolve symlinks so the rename replaces the file a link points at.
    let target = std::fs::canonicalize(path).unwrap_or_else(|_| PathBuf::from(path));
    let name = match (target.file_name(), std::fs::metadata(&target)) {
        (Some(name), Err(_)) => name,
        (Some(name), Ok(meta)) if meta.is_file() => name,
        _ => return std::fs::write(&target, bytes),
    };
    let temp_name = format!(".{}.{}.tmp", name.to_string_lossy(), std::process::id());
    let temp = target.with_file_name(temp_name);
    let written = std::fs::File::create(&temp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&temp, &target));
    if written.is_err() {
        let _ = std::fs::remove_file(&temp);
        return written;
    }
    // Sync the directory too, so the rename itself survives a crash
    // (where the platform can open a directory at all).
    let dir = target.parent().filter(|dir| !dir.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new("."))).map_or(Ok(()), |dir| dir.sync_all())
}

/// Writes a command's output: the one place an output error becomes a
/// message. Flushes, so a banner is visible before `serve` blocks.
fn emit(out: &mut dyn Write, text: &str) -> Result<(), String> {
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

/// The corpus `options` select: a `--corpus` JSON Lines file, or the
/// built-in seed plus the synthetic corpus at `--scale`.
fn load_corpus(options: &Options) -> Result<Corpus, String> {
    if let Some(path) = &options.corpus_path {
        let text = read_file(path, std::fs::read_to_string)?;
        return cpssec_attackdb::jsonl::from_jsonl(&text)
            .map_err(|e| format!("cannot parse `{path}`: {e}"));
    }
    let mut corpus = seed_corpus();
    // Streaming generation: byte-identical to generate-then-merge but
    // never builds a second corpus, so `snapshot build --scale 30` stays
    // in bounded memory at the ~1M-record mark.
    stream_into(&mut corpus, &SynthSpec::paper2020(2020, options.scale))
        .map_err(|e| format!("cannot merge synthetic corpus: {e}"))?;
    Ok(corpus)
}

/// The corpus `options` select and the search engine over it.
fn indexed_corpus(options: &Options) -> Result<(Corpus, SearchEngine), String> {
    let corpus = load_corpus(options)?;
    let engine = SearchEngine::build(&corpus);
    Ok((corpus, engine))
}

/// "N records (P patterns, W weaknesses, V vulnerabilities)".
fn record_counts(patterns: usize, weaknesses: usize, vulnerabilities: usize) -> String {
    format!(
        "{} records ({patterns} patterns, {weaknesses} weaknesses, {vulnerabilities} vulnerabilities)",
        patterns + weaknesses + vulnerabilities
    )
}

/// A 64-bit id or checksum as the 16-digit hex string the JSON outputs use.
fn hex_id(id: u64) -> render::Json {
    format!("{id:016x}").as_str().into()
}

fn corpus_counts(corpus: &Corpus) -> String {
    let stats = corpus.stats();
    record_counts(stats.patterns, stats.weaknesses, stats.vulnerabilities)
}

/// Executes a full command line; output goes to `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command (run `cpssec help` for usage)".into());
    };
    // `profile` wraps another full command line, so it owns its own flag
    // parsing and recurses into `run` with the remainder.
    if command == "profile" {
        return cmd_profile(rest, out);
    }
    let options = parse_options(rest)?;
    if options.trace_path.is_some() {
        cpssec_obs::recorder().enable_trace();
        // A root trace id for the whole batch run, so every span in the
        // exported Chrome trace groups under one id (the server mints
        // per-request ids instead).
        cpssec_obs::set_trace_id(cpssec_obs::mint_trace_id());
    }
    // Each command renders its output, and it is written once here.
    // `serve` (its banner, before it blocks) and `load` (its summary, even
    // when requests failed) also write to `out` before they return.
    let output = match command.as_str() {
        "table1" => cmd_table1(&options),
        "associate" => cmd_associate(&options),
        "figure" => cmd_figure(&options),
        "report" => cmd_report(&options),
        "simulate" => cmd_simulate(&options),
        "fleet" => cmd_fleet(&options),
        "campaign" => cmd_campaign(&options),
        "scenarios" => Ok(cmd_scenarios()),
        "export-model" => Ok(cmd_export_model(&options)),
        "export-corpus" => load_corpus(&options).map(|c| cpssec_attackdb::jsonl::to_jsonl(&c)),
        "json" => cmd_json(&options),
        "snapshot" => cmd_snapshot(&options),
        "delta" => cmd_delta(&options),
        "serve" => cmd_serve(&options, out),
        "load" => cmd_load(&options, out),
        "flight" => cmd_flight(&options),
        "help" | "--help" | "-h" => Ok(format!("{USAGE}\n")),
        other => Err(format!(
            "unknown command `{other}` (run `cpssec help` for usage)"
        )),
    };
    emit(out, &output?)?;
    if let Some(path) = &options.trace_path {
        write_file(path, cpssec_obs::recorder().trace_json().as_bytes())
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
    }
    Ok(())
}

fn cmd_snapshot(options: &Options) -> Result<String, String> {
    let action = options.arg(0, "snapshot needs an action: build, inspect, or verify")?;
    let path = options.arg(1, &format!("snapshot {action} needs a .cpsnap file path"))?;
    let invalid = |e| format!("invalid snapshot `{path}`: {e}");
    match action {
        "build" => {
            let (corpus, engine) = indexed_corpus(options)?;
            let bytes = cpssec_search::snapshot::encode(&corpus, &engine);
            write_file(path, &bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            Ok(format!(
                "wrote {path}: {} bytes, {}\n",
                bytes.len(),
                corpus_counts(&corpus)
            ))
        }
        "inspect" => {
            let info = cpssec_search::snapshot::inspect(&read_file(path, std::fs::read)?)
                .map_err(invalid)?;
            if options.json {
                let sections: Vec<render::Json> = info
                    .sections
                    .iter()
                    .map(|section| {
                        render::Json::Object(vec![
                            ("name".into(), section.name.into()),
                            ("offset".into(), (section.offset as f64).into()),
                            ("bytes".into(), (section.len as f64).into()),
                            ("checksum".into(), hex_id(section.checksum)),
                        ])
                    })
                    .collect();
                let artifact = render::Json::Object(vec![
                    ("path".into(), path.into()),
                    ("formatVersion".into(), f64::from(info.version).into()),
                    ("snapshotId".into(), hex_id(info.snapshot_id)),
                    ("payloadBytes".into(), (info.payload_len() as f64).into()),
                    ("sections".into(), render::Json::Array(sections)),
                ]);
                return Ok(format!("{}\n", artifact.to_text()));
            }
            let sections: String = info
                .sections
                .iter()
                .map(|s| {
                    format!(
                        "  {:<16} offset {:>12}  {:>12} bytes  checksum {:016x}\n",
                        s.name, s.offset, s.len, s.checksum
                    )
                })
                .collect();
            Ok(format!(
                "{path}: format version {}, snapshot id {:016x}\n{sections}",
                info.version, info.snapshot_id
            ))
        }
        "verify" => {
            let (corpus, _engine) =
                cpssec_search::snapshot::decode(&read_file(path, std::fs::read)?)
                    .map_err(invalid)?;
            Ok(format!("ok: {}\n", corpus_counts(&corpus)))
        }
        other => Err(format!(
            "unknown snapshot action `{other}` (expected build, inspect, or verify)"
        )),
    }
}

/// Resolves the state a new delta chains onto and its batch serial: the
/// parent is the snapshot id of a `.cpsnap` or the child id of a
/// `.cpsdelta` (so delta files can chain on each other without re-reading
/// the growing base). Without `--serial`, a `.cpsnap` parent takes the
/// smallest serial whose batch `delta apply` accepts on it, and a
/// `.cpsdelta` parent takes serial 0.
fn delta_parent(path: &str, options: &Options) -> Result<(u64, u32), String> {
    let bytes = read_file(path, std::fs::read)?;
    if let Ok(info) = cpssec_search::snapshot::inspect(&bytes) {
        let serial = match options.serial {
            Some(serial) => serial,
            None => free_serial(path, bytes, options.records)?,
        };
        return Ok((info.snapshot_id, serial));
    }
    inspect_delta(&bytes)
        .map(|info| (info.child_id, options.serial.unwrap_or(0)))
        .map_err(|e| format!("`{path}` is neither a valid .cpsnap nor .cpsdelta: {e}"))
}

/// The smallest serial whose batch of `records` records lies above the
/// snapshot `bytes` ([`first_serial_above`]); a family's highest id is
/// its last record's.
fn free_serial(path: &str, bytes: Vec<u8>, records: usize) -> Result<u32, String> {
    let invalid = |e| format!("invalid snapshot `{path}`: {e}");
    let view = cpssec_search::view::open(bytes.into()).map_err(invalid)?;
    let corpus = view.corpus();
    let last = |count: usize| count.checked_sub(1);
    let pattern = last(corpus.pattern_count()).map(|i| corpus.pattern(i));
    let weakness = last(corpus.weakness_count()).map(|i| corpus.weakness(i));
    let vulnerability = last(corpus.vulnerability_count()).map(|i| corpus.vulnerability(i));
    first_serial_above(
        records,
        pattern.transpose().map_err(invalid)?.map(|r| r.id()),
        weakness.transpose().map_err(invalid)?.map(|r| r.id()),
        vulnerability.transpose().map_err(invalid)?.map(|r| r.id()),
    )
    .ok_or_else(|| format!("no delta serial has ids above those of `{path}`"))
}

fn cmd_delta(options: &Options) -> Result<String, String> {
    let action = options.arg(
        0,
        "delta needs an action: build, inspect, apply, or compact",
    )?;
    match action {
        "build" => {
            let parent_path =
                options.arg(1, "delta build needs a parent .cpsnap or .cpsdelta path")?;
            let out_path = options.arg(2, "delta build needs an output .cpsdelta path")?;
            let (parent, serial) = delta_parent(parent_path, options)?;
            let batch = delta_batch(options.seed, options.records, serial);
            let bytes = build_delta(parent, &batch);
            let info = inspect_delta(&bytes).map_err(|e| format!("encode bug: {e}"))?;
            write_file(out_path, &bytes).map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
            Ok(format!(
                "wrote {out_path}: {} bytes, {} records, parent {:016x} -> child {:016x}\n",
                bytes.len(),
                info.records(),
                info.parent_id,
                info.child_id
            ))
        }
        "inspect" => {
            let path = options.arg(1, "delta inspect needs a .cpsdelta file path")?;
            let info = inspect_delta(&read_file(path, std::fs::read)?)
                .map_err(|e| format!("invalid delta `{path}`: {e}"))?;
            if options.json {
                let artifact = render::Json::Object(vec![
                    ("path".into(), path.into()),
                    ("formatVersion".into(), f64::from(info.version).into()),
                    ("parentId".into(), hex_id(info.parent_id)),
                    ("childId".into(), hex_id(info.child_id)),
                    ("records".into(), info.records().into()),
                    ("patterns".into(), info.patterns.into()),
                    ("weaknesses".into(), info.weaknesses.into()),
                    ("vulnerabilities".into(), info.vulnerabilities.into()),
                    ("payloadBytes".into(), info.payload_len.into()),
                ]);
                return Ok(format!("{}\n", artifact.to_text()));
            }
            Ok(format!(
                "{path}: format version {}, parent {:016x} -> child {:016x}\n  {}, {} payload bytes\n",
                info.version,
                info.parent_id,
                info.child_id,
                record_counts(info.patterns, info.weaknesses, info.vulnerabilities),
                info.payload_len
            ))
        }
        "apply" | "compact" => {
            let base_path = options.arg(1, &format!("delta {action} needs a base .cpsnap path"))?;
            let delta_paths = &options.positional[2..];
            if delta_paths.is_empty() {
                return Err(format!(
                    "delta {action} needs at least one .cpsdelta file after the base"
                ));
            }
            let invalid = |e| format!("invalid snapshot `{base_path}`: {e}");
            let base_bytes = read_file(base_path, std::fs::read)?;
            let mut state = cpssec_search::snapshot::inspect(&base_bytes)
                .map_err(invalid)?
                .snapshot_id;
            let (mut corpus, mut engine) =
                cpssec_search::snapshot::decode(&base_bytes).map_err(invalid)?;
            let mut applied = 0usize;
            for path in delta_paths {
                let delta_bytes = read_file(path, std::fs::read)?;
                let info = apply_delta(&mut corpus, &mut engine, &delta_bytes, state)
                    .map_err(|e| format!("cannot apply `{path}`: {e}"))?;
                state = info.child_id;
                applied += info.records();
            }
            // `compact` rebases the chain: the written snapshot is proven
            // byte-identical to a rebuild-from-scratch of the grown
            // corpus, and its snapshot id becomes the new chain anchor.
            let encoded = if action == "compact" {
                compact_verified(&corpus, &engine).map_err(|e| e.to_string())?
            } else {
                cpssec_search::snapshot::encode(&corpus, &engine)
            };
            let out_path = options.out_path.as_deref().unwrap_or(base_path);
            write_file(out_path, &encoded)
                .map_err(|e| format!("cannot write `{out_path}`: {e}"))?;
            let snapshot_id = cpssec_search::snapshot::inspect(&encoded)
                .map_err(|e| format!("encode bug: {e}"))?
                .snapshot_id;
            Ok(format!(
                "wrote {out_path}: {} bytes, {} records after {} delta(s) (+{applied}), snapshot id {snapshot_id:016x}\n",
                encoded.len(),
                corpus.stats().total(),
                delta_paths.len()
            ))
        }
        other => Err(format!(
            "unknown delta action `{other}` (expected build, inspect, apply, or compact)"
        )),
    }
}

/// `cpssec serve`: writes the banner to `out` as soon as the server
/// listens, and returns the final telemetry lines after the drain.
fn cmd_serve(options: &Options, out: &mut dyn Write) -> Result<String, String> {
    let state = match &options.snapshot_path {
        Some(path) => {
            // Snapshot boot: the file is decoded and validated in full
            // (the decode `snapshot verify` runs) before the server
            // listens, so a bad snapshot exits here with one line.
            let bytes: std::sync::Arc<[u8]> = read_file(path, std::fs::read)?.into();
            cpssec_server::AppState::from_snapshot_mapped(bytes)
                .map_err(|e| format!("invalid snapshot `{path}`: {e}"))?
        }
        None => cpssec_server::AppState::new(load_corpus(options)?),
    };
    // SLO config: --slo file wins over the CPSSEC_SLO env var.
    let slo_text = match &options.slo_path {
        Some(path) => Some(read_file(path, std::fs::read_to_string)?),
        None => std::env::var("CPSSEC_SLO").ok(),
    };
    let slo_routes = match slo_text {
        Some(text) => {
            let config = cpssec_obs::SloConfig::parse(&text)
                .map_err(|e| format!("invalid SLO config: {e}"))?;
            let routes = config.slos.len();
            state.telemetry.install_slo(config);
            routes
        }
        None => 0,
    };
    let mut server = cpssec_server::Server::bind(&options.addr, options.workers, state)
        .map_err(|e| format!("cannot bind `{}`: {e}", options.addr))?;
    if let Some(tick_ms) = options.tick_ms {
        server.set_tick_ms(tick_ms);
    }
    {
        let state = server.state();
        if let Some(max_conns) = options.max_conns {
            state.admission.set_max_conns(max_conns);
        }
        if let Some(queue_depth) = options.queue_depth {
            state.admission.set_queue_depth(queue_depth);
        }
    }
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    cpssec_server::signal::install(&server.shutdown_flag());
    let banner = format!(
        "listening on {addr} ({} workers, {slo_routes} SLOs)\n",
        options.workers
    );
    emit(out, &banner)?;
    let state = server.state();
    server.run().map_err(|e| format!("server error: {e}"))?;
    // Final telemetry snapshot after the drain — the --trace export of
    // the flight rings, the joined workers' included, happens in `run`
    // once this command returns.
    let (cache_hits, cache_misses) = state.responses.stats();
    Ok(format!(
        "final snapshot: {} ticks, {} requests, {} slow, cache {cache_hits} hits / {cache_misses} misses\nshutdown complete\n",
        state.telemetry.ticks(),
        state.requests.recorded(),
        state.requests.slow_observed(),
    ))
}

/// `cpssec profile`: runs any other command under the continuous
/// sampling profiler and reports where the wall time went.
fn cmd_profile(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let mut hz: u64 = 99;
    let mut flame: Option<&str> = None;
    let mut inner: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--hz" => hz = parse_count(arg, flag_value(&mut iter, arg, "a value")?)?,
            "--flame" => flame = Some(flag_value(&mut iter, arg, "a path")?),
            other => inner.push(other.to_owned()),
        }
    }
    if inner.is_empty() {
        return Err(
            "profile needs a command to run (e.g. `cpssec profile associate scada`)".into(),
        );
    }
    if inner[0] == "profile" {
        return Err("profile cannot wrap itself".into());
    }
    // Spans are the sampled stack frames: without them every sample is
    // idle and the table degenerates to a single root line.
    cpssec_obs::recorder().enable_spans();
    let sampler = cpssec_obs::Sampler::start(hz);
    let result = run(&inner, out);
    let graph = sampler.stop();
    result?;
    emit(out, &graph.table(15, cpssec_obs::stage_label))?;
    if let Some(path) = flame {
        write_file(path, graph.flame_json(cpssec_obs::stage_label).as_bytes())
            .map_err(|e| format!("cannot write flame graph `{path}`: {e}"))?;
        emit(out, &format!("wrote {path}\n"))?;
    }
    Ok(())
}

/// `cpssec flight inspect`: verify and render a `.cpsflight` dump.
fn cmd_flight(options: &Options) -> Result<String, String> {
    let action = options.arg(0, "flight needs an action: inspect")?;
    if action != "inspect" {
        return Err(format!(
            "unknown flight action `{action}` (expected inspect)"
        ));
    }
    let path = options.arg(1, "flight inspect needs a .cpsflight file path")?;
    let bytes = read_file(path, std::fs::read)?;
    // `decode` verifies every section checksum before it reads a payload.
    let dump = cpssec_obs::flight::decode(&bytes)
        .map_err(|e| format!("invalid flight dump `{path}`: {e}"))?;
    Ok(format!("{path}:\n{}", dump.timeline()))
}

/// `cpssec load`: writes the run's summary to `out` even when some
/// requests failed, then fails if any did.
fn cmd_load(options: &Options, out: &mut dyn Write) -> Result<String, String> {
    use cpssec_server::load::{run, LoadConfig};
    let config = LoadConfig::new(options.addr.clone(), options.clients, options.requests);
    let report = run(&config).map_err(|e| format!("cannot start load: {e}"))?;
    emit(out, &format!("{}\n", report.summary()))?;
    if report.errors() > 0 {
        return Err(format!("{} request(s) failed", report.errors()));
    }
    Ok(String::new())
}

fn cmd_table1(options: &Options) -> Result<String, String> {
    let (corpus, engine) = indexed_corpus(options)?;
    let model = cpssec_scada::model::scada_model();
    let filters = FilterPipeline::new();
    let rows = attribute_rows(&model, &engine, &corpus, Fidelity::Implementation, &filters);
    let rows = rows.iter().map(|r| {
        (
            r.attribute.as_str(),
            (r.patterns, r.weaknesses, r.vulnerabilities),
        )
    });
    Ok(counts_table("Attribute", "Attack Patterns", rows))
}

/// A text table with one row of (patterns, weaknesses, vulnerabilities)
/// counts per named item.
fn counts_table<'a>(
    item: &str,
    patterns: &str,
    rows: impl Iterator<Item = (&'a str, (usize, usize, usize))>,
) -> String {
    let cells: Vec<Vec<String>> = rows
        .map(|(name, (p, w, v))| vec![name.to_owned(), p.to_string(), w.to_string(), v.to_string()])
        .collect();
    text_table(&[item, patterns, "Weaknesses", "Vulnerabilities"], &cells)
}

fn load_model(path: &str) -> Result<SystemModel, String> {
    let xml = read_file(path, std::fs::read_to_string)?;
    cpssec_model::from_graphml(&xml).map_err(|e| format!("cannot parse `{path}`: {e}"))
}

fn cmd_associate(options: &Options) -> Result<String, String> {
    let path = options.arg(
        0,
        "associate needs a GraphML model path (or `scada` for the built-in model)",
    )?;
    let model = if path == "scada" {
        cpssec_scada::model::scada_model()
    } else {
        load_model(path)?
    };
    let (corpus, engine) = indexed_corpus(options)?;
    let mut filters = FilterPipeline::new();
    if let Some(top) = options.top {
        filters = filters.then(cpssec_search::Filter::TopKPerFamily(top));
    }
    let map = AssociationMap::build(&model, &engine, &corpus, options.fidelity, &filters);
    let rows = map
        .iter()
        .map(|(component, matches)| (component, matches.counts()));
    Ok(format!(
        "{}total: {} associated vectors at {} fidelity\n",
        counts_table("Component", "Patterns", rows),
        map.total_vectors(),
        options.fidelity
    ))
}

fn cmd_figure(options: &Options) -> Result<String, String> {
    let (corpus, engine) = indexed_corpus(options)?;
    let model = cpssec_scada::model::scada_model();
    let filters = FilterPipeline::new();
    let map = AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
    Ok(render::model_dot(&model, Some(&map)))
}

fn cmd_report(options: &Options) -> Result<String, String> {
    let (corpus, engine) = indexed_corpus(options)?;
    let model = cpssec_scada::model::scada_model();
    let filters = FilterPipeline::new();
    let association =
        AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
    let rows = attribute_rows(&model, &engine, &corpus, Fidelity::Implementation, &filters);
    let posture = SystemPosture::compute(&model, &corpus, &association);
    let consequences = if options.simulate {
        analyze_all(&association, options.ticks)
    } else {
        Vec::new()
    };
    Ok(report::render_report(&report::ReportInput {
        model: &model,
        corpus: &corpus,
        association: &association,
        attribute_rows: &rows,
        posture: &posture,
        consequences: &consequences,
    }))
}

fn cmd_simulate(options: &Options) -> Result<String, String> {
    let name = options.arg(0, "simulate needs a scenario name (see `cpssec scenarios`)")?;
    let config = ScadaConfig::default();
    let report = if name == "nominal" {
        ScadaHarness::new(config).run_batch_for(options.ticks)
    } else if let Some(attack) = attacks::all_scenarios()
        .into_iter()
        .find(|s| s.name == name)
    {
        ScadaHarness::with_attack(config, &attack).run_batch_for(options.ticks)
    } else if let Some(fault) = faults::all_fault_scenarios()
        .into_iter()
        .find(|s| s.name == name)
    {
        ScadaHarness::with_fault(config, &fault).run_batch_for(options.ticks)
    } else {
        return Err(format!(
            "unknown scenario `{name}` (see `cpssec scenarios`)"
        ));
    };
    let hazards: String = report
        .hazards
        .iter()
        .map(|hazard| format!("hazard: {hazard}\n"))
        .collect();
    Ok(format!(
        "scenario: {name} ({} ticks)\n\
         product:            {}\n\
         emergency stop:     {}\n\
         exploded:           {}\n\
         max temperature:    {:.1} °C\n\
         max speed deviation: {:.2} rpm\n\
         {hazards}",
        options.ticks,
        report.product,
        report.emergency_stopped,
        report.exploded,
        report.max_temperature_c,
        report.max_speed_deviation_rpm
    ))
}

/// `cpssec fleet`: a Monte-Carlo attack campaign over the centrifuge.
///
/// Records (and therefore the aggregate hash) are a pure function of
/// `(--seed, --scenarios, --ticks, --classes)` — `--threads` only changes
/// the wall clock, never the statistics.
fn cmd_fleet(options: &Options) -> Result<String, String> {
    let mut spec = CampaignSpec::new(options.scenarios, options.seed);
    spec.max_ticks = options.ticks;
    spec.threads = options.threads.unwrap_or(spec.threads);
    if let Some(raw) = &options.classes {
        let classes: Vec<&'static str> = raw
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|name| family(name).map(|family| family.name).ok_or(name))
            .collect::<Result<_, _>>()
            .map_err(|name| format!("unknown attack class `{name}`"))?;
        if classes.is_empty() {
            return Err("--classes needs at least one class name".into());
        }
        spec.classes = classes;
    }

    let started = std::time::Instant::now();
    let records = run_campaign(&spec);
    let elapsed = started.elapsed().as_secs_f64();
    let aggregate = cpssec_analysis::aggregate(&records);
    if options.json {
        let json = cpssec_analysis::aggregate_json(&aggregate);
        return Ok(format!("{}\n", json.to_text()));
    }
    Ok(format!(
        "{}{} scenarios in {elapsed:.2}s ({:.1}/s, {} threads)\naggregate hash: {:016x}\n",
        cpssec_analysis::aggregate_table(&aggregate),
        spec.scenarios,
        spec.scenarios as f64 / elapsed.max(1e-9),
        spec.threads,
        aggregate.records_hash
    ))
}

/// `cpssec campaign`: executes every exploit chain matched against a
/// testbed model as a multi-stage attack campaign and reports the
/// per-chain verdicts.
///
/// Records (and therefore the records hash) are a pure function of
/// `(testbed, --seed)` — `--threads` only changes the wall clock.
fn cmd_campaign(options: &Options) -> Result<String, String> {
    let name = options.arg(0, "campaign needs a testbed: scada or water")?;
    let testbed = cpssec_campaign::Testbed::parse(name)
        .ok_or_else(|| format!("unknown testbed `{name}` (expected scada or water)"))?;
    let mut run = cpssec_campaign::CampaignRun::new(testbed, options.seed);
    run.threads = options.threads.unwrap_or(run.threads);

    let started = std::time::Instant::now();
    let records = cpssec_campaign::run_campaign(&run);
    let elapsed = started.elapsed().as_secs_f64();
    if options.csv {
        return Ok(cpssec_analysis::campaign_csv(&records));
    }
    let aggregate = cpssec_analysis::campaign_aggregate(testbed.as_str(), &records);
    if options.json {
        let json = cpssec_analysis::campaign_json(&aggregate);
        return Ok(format!("{}\n", json.to_text()));
    }
    Ok(format!(
        "{}{} chains in {elapsed:.2}s ({} reached hazard, {} contained, {} textual-only, {} threads)\nrecords hash: {:016x}\n",
        cpssec_analysis::campaign_table(&aggregate),
        aggregate.chains,
        aggregate.reached,
        aggregate.contained,
        aggregate.textual,
        run.threads,
        aggregate.records_hash
    ))
}

fn cmd_scenarios() -> String {
    let attacks: String = attacks::all_scenarios()
        .into_iter()
        .map(|s| {
            format!(
                "  {:<32} [{} / {}] -> {}\n",
                s.name,
                s.weakness_ids.join(","),
                s.pattern_ids.join(","),
                s.target_component
            )
        })
        .collect();
    let faults: String = faults::all_fault_scenarios()
        .into_iter()
        .map(|s| format!("  {:<32} {}\n", s.name, s.description))
        .collect();
    format!("attack scenarios:\n{attacks}fault scenarios:\n{faults}plus: nominal\n")
}

fn cmd_export_model(options: &Options) -> String {
    let model = cpssec_scada::model::scada_model().at_fidelity(options.fidelity);
    cpssec_model::to_graphml(&model)
}

fn cmd_json(options: &Options) -> Result<String, String> {
    let (corpus, engine) = indexed_corpus(options)?;
    let model = cpssec_scada::model::scada_model();
    let filters = FilterPipeline::new();
    let map = AssociationMap::build(&model, &engine, &corpus, options.fidelity, &filters);
    let posture = SystemPosture::compute(&model, &corpus, &map);
    let artifact = render::association_json(&model, &map, &posture);
    Ok(format!("{}\n", artifact.to_text()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::json::JsonValue;

    fn run_capture(args: &[&str]) -> Result<String, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let mut buffer = Vec::new();
        run(&owned, &mut buffer)?;
        Ok(String::from_utf8(buffer).expect("utf8 output"))
    }

    #[test]
    fn parse_defaults_and_flags() {
        let options = parse_options(&[]).unwrap();
        assert_eq!(options.scale, 0.05);
        assert_eq!(options.fidelity, Fidelity::Implementation);

        let options = parse_options(
            &[
                "--scale",
                "0.2",
                "--fidelity",
                "conceptual",
                "--top",
                "5",
                "--simulate",
                "pos",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(options.scale, 0.2);
        assert_eq!(options.fidelity, Fidelity::Conceptual);
        assert_eq!(options.top, Some(5));
        assert!(options.simulate);
        assert_eq!(options.positional, ["pos"]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_options(&["--scale".into()]).is_err());
        assert!(parse_options(&["--scale".into(), "x".into()]).is_err());
        assert!(parse_options(&["--scale".into(), "0".into()]).is_err());
        assert!(parse_options(&["--fidelity".into(), "exact".into()]).is_err());
        assert!(parse_options(&["--bogus".into()]).is_err());
        // Non-finite and oversized scales fail here instead of panicking
        // or never returning in the generator.
        for scale in ["NaN", "nan", "inf", "1e300", "1000.5"] {
            assert_eq!(
                parse_options(&["--scale".into(), scale.into()]),
                Err(format!("invalid scale `{scale}`"))
            );
        }
        for scale in ["-2", "-inf"] {
            assert_eq!(
                parse_options(&["--scale".into(), scale.into()]),
                Err("scale must be positive".into())
            );
        }
        let options = parse_options(&["--scale".into(), "1000".into()]).unwrap();
        assert_eq!(options.scale, MAX_SCALE);
    }

    #[test]
    fn parse_rejects_zero_ticks() {
        assert_eq!(
            parse_options(&["--ticks".into(), "0".into()]),
            Err("invalid ticks `0`".into())
        );
        assert_eq!(
            parse_options(&["--ticks".into(), "1".into()])
                .unwrap()
                .ticks,
            1
        );
        let err = run_capture(&["simulate", "nominal", "--ticks", "0"]).unwrap_err();
        assert_eq!(err, "invalid ticks `0`");
    }

    #[test]
    fn write_file_replaces_the_target_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("cpssec-cli-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        let path_str = path.to_str().unwrap();
        write_file(path_str, b"first version, longer").unwrap();
        write_file(path_str, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.bin"], "temp file left behind");

        // A directory target gets the plain write's error and stays a
        // directory.
        assert!(write_file(dir.to_str().unwrap(), b"x").is_err());
        assert!(dir.is_dir());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_command_fails_on_one_line() {
        let err = run_capture(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("cpssec help"));
        assert_eq!(err.lines().count(), 1, "error must be one line: {err:?}");
    }

    #[test]
    fn help_prints_usage() {
        let output = run_capture(&["help"]).unwrap();
        assert!(output.contains("cpssec table1"));
    }

    #[test]
    fn table1_prints_all_six_attributes() {
        let output = run_capture(&["table1", "--scale", "0.01"]).unwrap();
        for attribute in [
            "Cisco ASA",
            "NI RT Linux OS",
            "Windows 7",
            "Labview",
            "NI cRIO 9063",
        ] {
            assert!(output.contains(attribute), "missing {attribute}");
        }
    }

    #[test]
    fn scenarios_lists_attacks_and_faults() {
        let output = run_capture(&["scenarios"]).unwrap();
        assert!(output.contains("bpcs-command-injection"));
        assert!(output.contains("chiller-degradation"));
        assert!(output.contains("nominal"));
    }

    #[test]
    fn simulate_nominal_reports_nominal() {
        let output = run_capture(&["simulate", "nominal", "--ticks", "4010"]).unwrap();
        assert!(output.contains("product:            nominal"));
    }

    #[test]
    fn simulate_attack_by_name() {
        let output = run_capture(&["simulate", "setpoint-tamper", "--ticks", "4010"]).unwrap();
        assert!(output.contains("ruined-speed"));
    }

    #[test]
    fn simulate_fault_by_name() {
        let output = run_capture(&["simulate", "chiller-degradation", "--ticks", "12000"]).unwrap();
        assert!(output.contains("emergency stop:     true"));
    }

    #[test]
    fn simulate_unknown_scenario_fails() {
        assert!(run_capture(&["simulate", "ghost"])
            .unwrap_err()
            .contains("unknown scenario"));
    }

    #[test]
    fn parse_fleet_flags() {
        let options = parse_options(
            &[
                "--scenarios",
                "50",
                "--seed",
                "9",
                "--threads",
                "3",
                "--classes",
                "nominal",
                "--json",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(options.scenarios, 50);
        assert_eq!(options.seed, 9);
        assert_eq!(options.threads, Some(3));
        assert_eq!(options.classes.as_deref(), Some("nominal"));
        assert!(options.json);
        assert!(parse_options(&["--scenarios".into(), "0".into()]).is_err());
        assert!(parse_options(&["--threads".into(), "0".into()]).is_err());
        assert!(parse_options(&["--seed".into(), "x".into()]).is_err());
    }

    fn hash_line(output: &str) -> String {
        output
            .lines()
            .find(|l| l.starts_with("aggregate hash: ") || l.starts_with("records hash: "))
            .expect("hash line present")
            .to_owned()
    }

    #[test]
    fn campaign_hash_is_thread_count_independent() {
        let args = |threads: &'static str| vec!["campaign", "water", "--threads", threads];
        let two = run_capture(&args("2")).unwrap();
        assert!(two.contains("reached-hazard"), "{two}");
        assert!(two.contains("dosing interlock"), "{two}");
        let one = run_capture(&args("1")).unwrap();
        assert_eq!(hash_line(&two), hash_line(&one));
    }

    #[test]
    fn campaign_json_emits_the_verdict_artifact() {
        let output = run_capture(&["campaign", "scada", "--json"]).unwrap();
        let value = cpssec_attackdb::json::parse(output.trim()).expect("valid json");
        assert!(value.get("recordsHash").is_some());
        assert_eq!(
            value.get("testbed").and_then(JsonValue::as_str),
            Some("scada")
        );
        assert!(value.get("reachedHazard").is_some());
    }

    #[test]
    fn campaign_csv_lists_every_chain() {
        let output = run_capture(&["campaign", "scada", "--csv"]).unwrap();
        assert!(output.starts_with("index,seed,chain,"));
        assert!(output.contains("sis-disable-command-injection"));
        assert!(output.contains("textual-only"));
    }

    #[test]
    fn campaign_rejects_unknown_testbeds() {
        let err = run_capture(&["campaign", "gasworks"]).unwrap_err();
        assert!(err.contains("unknown testbed"));
        let err = run_capture(&["campaign"]).unwrap_err();
        assert!(err.contains("needs a testbed"));
    }

    #[test]
    fn fleet_hash_is_thread_count_independent() {
        let args = |threads: &'static str| {
            vec![
                "fleet",
                "--scenarios",
                "6",
                "--seed",
                "9",
                "--ticks",
                "1500",
                "--threads",
                threads,
            ]
        };
        let two = run_capture(&args("2")).unwrap();
        assert!(two.contains("P(hazard)"), "{two}");
        assert!(two.contains("6 scenarios in"), "{two}");
        let one = run_capture(&args("1")).unwrap();
        assert_eq!(hash_line(&two), hash_line(&one));
    }

    #[test]
    fn fleet_json_emits_the_aggregate_artifact() {
        let output = run_capture(&[
            "fleet",
            "--scenarios",
            "4",
            "--seed",
            "3",
            "--ticks",
            "1500",
            "--json",
        ])
        .unwrap();
        let value = cpssec_attackdb::json::parse(output.trim()).expect("valid json");
        assert!(value.get("recordsHash").is_some());
        assert_eq!(
            value.get("scenarios"),
            Some(&cpssec_attackdb::json::JsonValue::Number(4.0))
        );
    }

    #[test]
    fn fleet_restricts_classes_and_rejects_unknown_ones() {
        let output = run_capture(&[
            "fleet",
            "--scenarios",
            "3",
            "--ticks",
            "1200",
            "--classes",
            "nominal",
        ])
        .unwrap();
        assert!(output.contains("nominal"), "{output}");
        assert!(!output.contains("command-injection"), "{output}");
        let err = run_capture(&["fleet", "--classes", "quantum"]).unwrap_err();
        assert!(err.contains("quantum"));
        let err = run_capture(&["fleet", "--classes", ","]).unwrap_err();
        assert!(err.contains("at least one class"));
    }

    #[test]
    fn export_model_then_associate_round_trips() {
        let xml = run_capture(&["export-model"]).unwrap();
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.graphml");
        std::fs::write(&path, xml).unwrap();
        let output = run_capture(&[
            "associate",
            path.to_str().unwrap(),
            "--scale",
            "0.01",
            "--top",
            "3",
        ])
        .unwrap();
        assert!(output.contains("SIS platform"));
        assert!(output.contains("total:"));
    }

    #[test]
    fn figure_emits_dot() {
        let output = run_capture(&["figure", "--scale", "0.01"]).unwrap();
        assert!(output.starts_with("graph"));
        assert!(output.contains("CVE"));
    }

    #[test]
    fn report_contains_sections_and_simulation_is_optional() {
        let output = run_capture(&["report", "--scale", "0.01"]).unwrap();
        assert!(output.contains("# Security analysis report"));
        assert!(!output.contains("## Simulated consequences"));
    }

    #[test]
    fn associate_requires_a_path() {
        assert!(run_capture(&["associate"]).unwrap_err().contains("GraphML"));
    }

    #[test]
    fn associate_scada_uses_the_builtin_model() {
        let output = run_capture(&["associate", "scada", "--scale", "0.01", "--top", "3"]).unwrap();
        assert!(output.contains("SIS platform"));
        assert!(output.contains("total:"));
    }

    #[test]
    fn trace_flag_writes_a_chrome_trace() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit-trace.json");
        let path_str = path.to_str().unwrap().to_owned();
        run_capture(&[
            "associate",
            "scada",
            "--scale",
            "0.01",
            "--trace",
            &path_str,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = cpssec_attackdb::json::parse(&text).expect("trace is valid json");
        let events = value.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty(), "trace should contain span events");
        for event in events {
            assert_eq!(event.get("ph").unwrap().as_str(), Some("X"));
            assert!(event.get("ts").is_some());
            assert!(event.get("dur").is_some());
        }
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
            .collect();
        assert!(names.contains(&"associate"), "stages seen: {names:?}");
        assert!(names.contains(&"score"), "stages seen: {names:?}");
    }

    #[test]
    fn parse_trace_flag() {
        let options = parse_options(&["--trace".into(), "out.json".into()]).unwrap();
        assert_eq!(options.trace_path.as_deref(), Some("out.json"));
        assert!(parse_options(&["--trace".into()]).is_err());
    }

    #[test]
    fn export_corpus_round_trips_through_corpus_flag() {
        let jsonl = run_capture(&["export-corpus", "--scale", "0.01"]).unwrap();
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.jsonl");
        std::fs::write(&path, &jsonl).unwrap();
        let output = run_capture(&["table1", "--corpus", path.to_str().unwrap()]).unwrap();
        assert!(output.contains("Cisco ASA"));
        // Same corpus either way: identical table.
        let direct = run_capture(&["table1", "--scale", "0.01"]).unwrap();
        assert_eq!(output, direct);
    }

    #[test]
    fn json_emits_a_parsable_dashboard_artifact() {
        let output = run_capture(&["json", "--scale", "0.01"]).unwrap();
        let value = cpssec_attackdb::json::parse(output.trim()).expect("valid json");
        assert!(value.get("systemScore").is_some());
        assert!(value.get("components").unwrap().as_array().unwrap().len() == 8);
    }

    #[test]
    fn corpus_flag_with_missing_file_fails() {
        let err = run_capture(&["table1", "--corpus", "/nonexistent/corpus.jsonl"]).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn parse_delta_flags() {
        let options = parse_options(
            &["--records", "500", "--serial", "2", "--out", "x.cpsnap"].map(String::from),
        )
        .unwrap();
        assert_eq!(options.records, 500);
        assert_eq!(options.serial, Some(2));
        assert_eq!(options.out_path.as_deref(), Some("x.cpsnap"));
        assert!(parse_options(&["--records".into(), "0".into()]).is_err());
        assert!(parse_options(&["--records".into(), "10001".into()]).is_err());
        assert!(parse_options(&["--serial".into(), "-1".into()]).is_err());
        assert!(parse_options(&["--serial".into(), "4294".into()]).is_ok());
        assert!(parse_options(&["--serial".into(), "4295".into()]).is_err());
        assert!(parse_options(&["--out".into()]).is_err());
    }

    #[test]
    fn delta_usage_errors_are_one_line() {
        for (args, needle) in [
            (vec!["delta"], "needs an action"),
            (vec!["delta", "refry", "x"], "unknown delta action"),
            (vec!["delta", "build"], "needs a parent"),
            (vec!["delta", "apply", "base.cpsnap"], "at least one"),
            (vec!["delta", "inspect"], "needs a .cpsdelta"),
        ] {
            let err = run_capture(&args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
            assert_eq!(err.lines().count(), 1, "{args:?}: {err:?}");
        }
    }

    #[test]
    fn snapshot_inspect_emits_offsets_and_json() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inspect.cpsnap");
        let path = path.to_str().unwrap().to_owned();
        run_capture(&["snapshot", "build", &path, "--scale", "0.01"]).unwrap();

        let text = run_capture(&["snapshot", "inspect", &path]).unwrap();
        assert!(text.contains("snapshot id"), "{text}");
        assert!(text.contains("offset"), "{text}");

        let json = run_capture(&["snapshot", "inspect", &path, "--json"]).unwrap();
        let value = cpssec_attackdb::json::parse(json.trim()).expect("valid json");
        assert_eq!(value.get("formatVersion"), Some(&JsonValue::Number(4.0)));
        let sections = value.get("sections").unwrap().as_array().unwrap();
        assert_eq!(sections.len(), 4);
        for section in sections {
            assert!(section.get("offset").is_some(), "{section:?}");
            assert!(section.get("checksum").is_some(), "{section:?}");
        }
        // The text and JSON outputs agree on the snapshot id.
        let id = value.get("snapshotId").and_then(JsonValue::as_str).unwrap();
        assert!(text.contains(id), "{id} not in {text}");
    }

    #[test]
    fn profile_wraps_a_command_and_writes_the_flame_graph() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let flame = dir.join("unit-flame.json");
        let flame_str = flame.to_str().unwrap().to_owned();
        let output = run_capture(&[
            "profile",
            "--hz",
            "997",
            "--flame",
            &flame_str,
            "associate",
            "scada",
            "--scale",
            "0.01",
        ])
        .unwrap();
        // The wrapped command's own output comes through untouched...
        assert!(output.contains("SIS platform"), "{output}");
        assert!(output.contains("total:"), "{output}");
        // ...followed by the profiler's self-time table.
        assert!(output.contains("self µs"), "{output}");
        assert!(output.contains("Hz"), "{output}");
        assert!(output.contains(&format!("wrote {flame_str}")), "{output}");
        let text = std::fs::read_to_string(&flame).unwrap();
        let value = cpssec_attackdb::json::parse(&text).expect("flame graph is valid json");
        assert_eq!(value.get("name").and_then(JsonValue::as_str), Some("root"));
        assert!(value.get("value").is_some(), "{text}");
    }

    #[test]
    fn profile_usage_errors_are_one_line() {
        for (args, needle) in [
            (vec!["profile"], "needs a command"),
            (vec!["profile", "profile", "help"], "cannot wrap itself"),
            (vec!["profile", "--hz", "0", "help"], "invalid hz"),
            (vec!["profile", "--flame"], "needs a path"),
        ] {
            let err = run_capture(&args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
            assert_eq!(err.lines().count(), 1, "{args:?}: {err:?}");
        }
    }

    #[test]
    fn flight_inspect_renders_a_dump_and_rejects_corruption() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.cpsflight");
        let path_str = path.to_str().unwrap().to_owned();
        cpssec_obs::flight::set_enabled(true);
        cpssec_obs::flight::event(
            cpssec_obs::FlightKind::Shed,
            cpssec_obs::flight::label_id("GET /unit"),
            cpssec_obs::flight::label_id("queue_full"),
        );
        let bytes = cpssec_obs::flight::encode_dump(&cpssec_obs::flight::DumpInput {
            reason: "unit-test",
            requests_json: "{\"requests\":[]}",
            alerts_json: "{\"alerts\":[]}",
            metrics_text: "",
        });
        std::fs::write(&path, &bytes).unwrap();

        let output = run_capture(&["flight", "inspect", &path_str]).unwrap();
        assert!(output.contains("reason: unit-test"), "{output}");
        assert!(output.contains("thread"), "{output}");
        assert!(output.contains("GET /unit"), "{output}");

        // One flipped payload byte must fail checksum verification
        // (flip inside a real section — trailing alignment padding is
        // not covered by any checksum).
        let info = cpssec_obs::flight::inspect(&bytes).unwrap();
        let section = info.sections.iter().find(|s| s.len > 0).unwrap();
        let mut corrupt = bytes.clone();
        corrupt[section.offset as usize] ^= 0xff;
        std::fs::write(&path, &corrupt).unwrap();
        let err = run_capture(&["flight", "inspect", &path_str]).unwrap_err();
        assert!(err.contains("invalid flight dump"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err:?}");
    }

    #[test]
    fn flight_usage_errors_are_one_line() {
        for (args, needle) in [
            (vec!["flight"], "needs an action"),
            (vec!["flight", "replay", "x"], "unknown flight action"),
            (vec!["flight", "inspect"], "needs a .cpsflight"),
            (
                vec!["flight", "inspect", "/nonexistent.cpsflight"],
                "cannot read",
            ),
        ] {
            let err = run_capture(&args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
            assert_eq!(err.lines().count(), 1, "{args:?}: {err:?}");
        }
    }

    #[test]
    fn delta_build_apply_compact_round_trip() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path_of = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let base = path_of("delta-base.cpsnap");
        run_capture(&["snapshot", "build", &base, "--scale", "0.01"]).unwrap();

        let d0 = path_of("chain-0.cpsdelta");
        let out = run_capture(&[
            "delta",
            "build",
            &base,
            &d0,
            "--records",
            "40",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out.contains("40 records"), "{out}");

        // A second delta chains onto the first delta *file* directly.
        let d1 = path_of("chain-1.cpsdelta");
        run_capture(&[
            "delta",
            "build",
            &d0,
            &d1,
            "--records",
            "40",
            "--seed",
            "5",
            "--serial",
            "1",
        ])
        .unwrap();
        let json = run_capture(&["delta", "inspect", &d1, "--json"]).unwrap();
        let value = cpssec_attackdb::json::parse(json.trim()).expect("valid json");
        assert_eq!(value.get("records"), Some(&JsonValue::Number(40.0)));

        // Apply both; the grown snapshot verifies clean.
        let grown = path_of("delta-grown.cpsnap");
        let out = run_capture(&["delta", "apply", &base, &d0, &d1, "--out", &grown]).unwrap();
        assert!(out.contains("+80"), "{out}");
        let check = run_capture(&["snapshot", "verify", &grown]).unwrap();
        assert!(check.starts_with("ok: "), "{check}");

        // Compaction is proven byte-identical to rebuild-from-scratch,
        // and the canonical encoder makes apply's output match it too.
        let compacted = path_of("delta-compacted.cpsnap");
        run_capture(&["delta", "compact", &base, &d0, &d1, "--out", &compacted]).unwrap();
        assert_eq!(
            std::fs::read(&grown).unwrap(),
            std::fs::read(&compacted).unwrap()
        );

        // Skipping a link in the chain is a parent mismatch.
        let err = run_capture(&["delta", "apply", &base, &d1, "--out", &grown]).unwrap_err();
        assert!(err.contains("parent"), "{err}");
    }

    #[test]
    fn delta_build_without_serial_applies_on_a_compacted_snapshot() {
        let dir = std::env::temp_dir().join("cpssec-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path_of = |name: &str| dir.join(name).to_str().unwrap().to_owned();
        let base = path_of("serial-base.cpsnap");
        run_capture(&["snapshot", "build", &base, "--scale", "0.01"]).unwrap();
        let d0 = path_of("serial-0.cpsdelta");
        let build = |parent: &str, out: &str, extra: &[&str]| {
            let mut args = vec!["delta", "build", parent, out, "--records", "1000"];
            args.extend_from_slice(extra);
            run_capture(&args)
        };
        build(&base, &d0, &["--seed", "5"]).unwrap();
        let grown = path_of("serial-grown.cpsnap");
        run_capture(&["delta", "compact", &base, &d0, "--out", &grown]).unwrap();

        // Serial 0's ids are in the compacted snapshot now: asking for it
        // still writes the delta, which the id floor then refuses.
        let d1 = path_of("serial-1.cpsdelta");
        build(&grown, &d1, &["--seed", "6", "--serial", "0"]).unwrap();
        let err = run_capture(&["delta", "compact", &grown, &d1]).unwrap_err();
        assert!(err.contains("append-only id floor"), "{err}");

        // Without --serial the build takes the next free block, serial 1.
        build(&grown, &d1, &["--seed", "6"]).unwrap();
        let by_hand = path_of("serial-1-by-hand.cpsdelta");
        build(&grown, &by_hand, &["--seed", "6", "--serial", "1"]).unwrap();
        assert_eq!(
            std::fs::read(&d1).unwrap(),
            std::fs::read(&by_hand).unwrap()
        );
        let out = path_of("serial-grown-twice.cpsnap");
        run_capture(&["delta", "compact", &grown, &d1, "--out", &out]).unwrap();
    }
}
