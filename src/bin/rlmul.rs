//! `rlmul` — command-line front end for the RL-MUL workspace.
//!
//! ```sh
//! rlmul info     --bits 8  --kind and
//! rlmul train    --bits 8  --kind and --method a2c --steps 80 --pref area \
//!                --ckpt-dir runs/a2c8 --ckpt-every 10 --telemetry runs/a2c8.jsonl
//! rlmul train    --method a2c --ckpt-dir runs/a2c8 --resume      # continue
//! rlmul report   runs/a2c8.jsonl
//! rlmul export   --bits 16 --kind mbe --structure dadda --out mul.v
//! rlmul verify   --bits 8  --kind mac-and --structure gomil
//! rlmul synth    --bits 8  --kind and --structure wallace --target 1.0
//! ```

use rlmul::baselines::{gomil, SaConfig};
use rlmul::ckpt::{read_snapshot, SnapshotStore};
use rlmul::core::{
    resume_a2c, resume_dqn, resume_sa, run_sa_with, train_a2c_with, train_dqn_with, A2cConfig,
    CostWeights, DqnConfig, EnvConfig, EvalCache, MulEnv, OptimizationOutcome, TrainHooks,
};
use rlmul::ct::{CompressorTree, PpgKind};
use rlmul::lec::{check_datapath, check_formal};
use rlmul::rtl::{
    from_verilog, quad_multiplier, to_verilog, AdderKind, MultiplierNetlist, Netlist,
};
use rlmul::synth::{SynthError, SynthesisOptions, Synthesizer};
use rlmul::telemetry::{Event, Summary, TelemetryWriter};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let tokens: Vec<String> = argv.collect();
    // Help after any subcommand answers before the command runs, so
    // `rlmul serve --help` starts no daemon and writes no state.
    if tokens.iter().any(|t| t == "--help" || t == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = parse_opts(tokens.clone());
    let lockdep = matches!(opts.get("lockdep").map(String::as_str), Some("on" | "true" | "1"));
    if lockdep {
        rlmul::check::lockdep::enable();
    }
    let result = match command.as_str() {
        "info" => cmd_info(&opts),
        // `optimize` predates checkpointing and remains an alias.
        "train" | "optimize" => cmd_train(&opts),
        "report" => cmd_report(&tokens, &opts),
        "export" => cmd_export(&opts),
        "verify" => cmd_verify(&opts),
        "lint" => cmd_lint(&opts),
        "check-src" => cmd_check_src(&opts),
        "synth" => cmd_synth(&opts),
        "serve" => cmd_serve(&opts),
        "trace" => cmd_trace(&tokens, &opts),
        "serve-metrics" => cmd_serve_metrics(&tokens, &opts),
        "profile" => cmd_profile(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    };
    let mut cycles = 0;
    if lockdep {
        rlmul::check::lockdep::disable();
        let reports = rlmul::check::lockdep::take_reports();
        cycles = reports.len();
        for r in &reports {
            eprintln!("lockdep: {}", r.message);
        }
    }
    match result {
        Ok(()) if cycles > 0 => {
            eprintln!("error: {cycles} lock-order cycle(s) detected");
            ExitCode::FAILURE
        }
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
rlmul — multiplier design optimization with deep reinforcement learning

USAGE: rlmul <command> [--key value ...]

COMMANDS
  info      show structure statistics (wallace/dadda/gomil/quad)
  train     search for a better compressor tree (RL or SA), with
            optional checkpoint/resume and JSONL telemetry
            (`optimize` is an alias)
  report    summarize a JSONL telemetry file
  export    emit structural Verilog for a named structure
  verify    equivalence-check a structure against the golden model
  lint      run the structural netlist linter
  check-src run the repo's concurrency/determinism source lint
            (wall-clock, hash-iter, panic-path, crate-attrs)
  synth     synthesize a structure and report PPA
  serve     run the multi-tenant optimization job server (HTTP API;
            see DESIGN.md §16); Ctrl-C drains and persists all jobs
  trace     fetch one job's event timeline from a running job server
            and render it as a table plus flamegraph-ready stacks
  serve-metrics  replay a JSONL log onto a Prometheus /metrics endpoint
  profile   run a short instrumented search and print its span tree
            plus flamegraph-ready collapsed stacks

COMMON OPTIONS
  --bits N          operand width (default 8)
  --kind K          and | mbe | mac-and | mac-mbe (default and)
  --structure S     wallace | dadda | gomil | quad (default wallace)

VERIFY OPTIONS
  --formal-cec      prove equivalence with the SAT-based formal engine
                    (vs the golden Dadda reference) instead of
                    simulation sweeps

LINT OPTIONS
  --in PATH         lint a structural Verilog file instead of a
                    generated structure

CHECK-SRC OPTIONS
  --root PATH       workspace root to scan (default: nearest ancestor
                    of the current directory with a [workspace] manifest)

TRAIN/PROFILE DEBUG OPTIONS
  --lockdep on      enable the runtime lock-order detector for this
                    invocation; detected cycles are printed on exit

TRAIN OPTIONS
  --method M        dqn | a2c | sa (default a2c)
  --steps N         environment steps (default 80)
  --pref P          area | timing | tradeoff (default tradeoff)
  --seed N          RNG seed (default 1)
  --verilog PATH    write the best design as Verilog
  --ckpt-dir DIR    write rolling latest/best snapshots into DIR;
                    Ctrl-C stops cleanly after the current step and
                    rolls a final snapshot
  --ckpt-every N    also roll `latest.ckpt` every N completed steps
                    (default 25; 0 = only on shutdown/interrupt)
  --keep-history    pin each periodic snapshot as `step-<n>.ckpt`
  --resume [PATH]   continue from PATH, or from `latest.ckpt` in
                    --ckpt-dir when no PATH is given; the resumed run
                    replays the uninterrupted trajectory bit-for-bit
  --telemetry PATH  stream per-episode/per-phase JSONL events to PATH
                    (summarize later with `rlmul report PATH`)
  --metrics-addr A  serve live Prometheus metrics on A while training
                    (e.g. 127.0.0.1:9090; scrape GET /metrics)
  --surrogate on|off
                    pre-screen candidate actions with the online
                    learned evaluator so only predicted-promising
                    states reach real synthesis (default off; off is
                    bit-identical to a build without the surrogate)
  --surrogate-topk N
                    with the surrogate on, synthesize the chosen
                    action only when it ranks in the predicted best N
                    successors (default 3)
  --surrogate-refresh N
                    force a real synthesis after N consecutive
                    surrogate-served evaluations (default 8)

REPORT USAGE
  rlmul report RUN.jsonl [--phase]
  --phase           print the per-span time-breakdown table instead of
                    the event summary

SERVE OPTIONS
  --addr A          listen address (default 127.0.0.1:7171; port 0
                    picks a free port, printed on startup)
  --dir DIR         durable state directory: job records and per-job
                    driver snapshots (default serve-state); restart
                    with the same DIR to re-adopt in-flight jobs
  --workers N       optimization worker threads (default 2)
  --http-workers N  HTTP serving threads (default 2)

TRACE USAGE
  rlmul trace JOB_ID [--addr 127.0.0.1:7171] [--out PATH]
                    fetch GET /jobs/JOB_ID/trace and print the event
                    timeline (seq, relative time, duration, kind,
                    detail) plus a per-kind span summary; --out writes
                    the collapsed stacks (`trace;kind <µs>` lines,
                    ready for inferno-flamegraph) to PATH

SERVE-METRICS USAGE
  rlmul serve-metrics RUN.jsonl [--metrics-addr 127.0.0.1:9090]
                    replay a finished run's JSONL log as a static
                    /metrics endpoint; Ctrl-C stops the server

PROFILE OPTIONS
  accepts the train shape options (--bits/--kind/--method/--steps/
  --pref/--seed; default 12 steps) plus:
  --out PATH        write collapsed stacks (`a;b;c <µs>` lines, ready
                    for inferno-flamegraph) to PATH instead of stdout

SYNTH OPTIONS
  --target NS       target delay in ns (default: minimum area)

EXPORT OPTIONS
  --out PATH        output file (default: stdout)";

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn parse_opts(tokens: Vec<String>) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some(key) = tokens[i].strip_prefix("--") {
            // A following token that is itself a `--key` leaves this
            // one as a boolean flag (e.g. `--formal-cec`).
            if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                map.insert(key.to_owned(), tokens[i + 1].clone());
                i += 2;
                continue;
            }
            map.insert(key.to_owned(), String::new());
        }
        i += 1;
    }
    map
}

/// The value of `--key` parsed as `T`, or `default` when the option is
/// absent. A value that does not parse is a usage error naming the
/// option and the value, never a silent fallback to the default.
fn get<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) if v.is_empty() => Err(format!("--{key} needs a value")),
        Some(v) => v.parse().map_err(|_| format!("invalid value `{v}` for --{key}")),
    }
}

/// `--steps` (default `default`), which must be at least 1: a run of
/// zero steps has no trajectory to report.
fn get_steps(opts: &HashMap<String, String>, default: usize) -> Result<usize, String> {
    match get(opts, "steps", default)? {
        0 => Err("--steps must be at least 1 (got 0)".to_owned()),
        steps => Ok(steps),
    }
}

fn parse_kind(opts: &HashMap<String, String>) -> Result<PpgKind, String> {
    match opts.get("kind").map(String::as_str).unwrap_or("and") {
        "and" => Ok(PpgKind::And),
        "mbe" => Ok(PpgKind::Mbe),
        "mac-and" => Ok(PpgKind::MacAnd),
        "mac-mbe" => Ok(PpgKind::MacMbe),
        other => Err(format!("unknown kind `{other}` (and|mbe|mac-and|mac-mbe)")),
    }
}

fn build_structure(
    opts: &HashMap<String, String>,
    bits: usize,
    kind: PpgKind,
) -> Result<Netlist, Box<dyn std::error::Error>> {
    let which = opts.get("structure").map(String::as_str).unwrap_or("wallace");
    let tree = match which {
        "wallace" => CompressorTree::wallace(bits, kind)?,
        "dadda" => CompressorTree::dadda(bits, kind)?,
        "gomil" => gomil(bits, kind)?,
        "quad" => return Ok(quad_multiplier(bits, kind, AdderKind::default())?),
        other => return Err(format!("unknown structure `{other}`").into()),
    };
    Ok(MultiplierNetlist::elaborate(&tree)?.into_netlist())
}

fn cmd_info(opts: &HashMap<String, String>) -> CliResult {
    let bits: usize = get(opts, "bits", 8)?;
    let kind = parse_kind(opts)?;
    println!("{bits}-bit {kind} designs:");
    for (name, tree) in [
        ("wallace", CompressorTree::wallace(bits, kind)?),
        ("dadda", CompressorTree::dadda(bits, kind)?),
        ("gomil", gomil(bits, kind)?),
    ] {
        let nl = MultiplierNetlist::elaborate(&tree)?.into_netlist();
        println!(
            "  {name:<8} {:>3} FA  {:>3} HA  {:>2} stages  {:>5} gates",
            tree.matrix().total32(),
            tree.matrix().total22(),
            tree.stage_count()?,
            nl.gates().len()
        );
    }
    Ok(())
}

/// Installs a SIGINT handler (once) that raises a shared stop flag,
/// so `rlmul train` finishes its current step, rolls a final snapshot
/// and exits cleanly instead of dying mid-write. The handler only
/// performs an atomic store — async-signal-safe by construction. A
/// second Ctrl-C falls back to the default disposition and kills the
/// process immediately.
fn install_sigint() -> Arc<AtomicBool> {
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    let flag = FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))).clone();
    #[cfg(unix)]
    {
        extern "C" fn on_sigint(_sig: i32) {
            if let Some(flag) = FLAG.get() {
                // First Ctrl-C: request a cooperative stop.
                if !flag.swap(true, Ordering::Relaxed) {
                    return;
                }
            }
            // Second Ctrl-C (or a miswired handler): die immediately.
            std::process::exit(130);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
    flag
}

fn cmd_train(opts: &HashMap<String, String>) -> CliResult {
    let bits: usize = get(opts, "bits", 8)?;
    let kind = parse_kind(opts)?;
    let steps = get_steps(opts, 80)?;
    let seed: u64 = get(opts, "seed", 1)?;
    // Parsed before the telemetry file or checkpoint directory exists,
    // so a bad value leaves nothing behind.
    let checkpoint_every: usize = get(opts, "ckpt-every", 25)?;
    let mut env_cfg = EnvConfig::new(bits, kind);
    env_cfg.weights = match opts.get("pref").map(String::as_str).unwrap_or("tradeoff") {
        "area" => CostWeights::AREA,
        "timing" => CostWeights::TIMING,
        "tradeoff" => CostWeights::TRADE_OFF,
        other => return Err(format!("unknown pref `{other}`").into()),
    };
    match opts.get("surrogate").map(String::as_str) {
        None | Some("off") => {}
        Some("on") => env_cfg.surrogate.enabled = true,
        Some(other) => return Err(format!("unknown --surrogate `{other}` (on|off)").into()),
    }
    env_cfg.surrogate.topk = get(opts, "surrogate-topk", env_cfg.surrogate.topk)?;
    env_cfg.surrogate.refresh_every =
        get(opts, "surrogate-refresh", env_cfg.surrogate.refresh_every)?;
    let method = opts.get("method").map(String::as_str).unwrap_or("a2c");
    if !matches!(method, "dqn" | "a2c" | "sa") {
        return Err(format!("unknown method `{method}` (dqn|a2c|sa)").into());
    }

    let mut hooks = TrainHooks::default();
    let writer = match opts.get("telemetry") {
        Some(path) if !path.is_empty() => {
            let (writer, sink) = TelemetryWriter::create(path)?;
            hooks.telemetry = sink;
            Some((writer, path.clone()))
        }
        _ => None,
    };
    let store =
        opts.get("ckpt-dir").filter(|p| !p.is_empty()).map(|dir| SnapshotStore::new(dir, method));
    hooks.store = store.clone();
    hooks.checkpoint_every = checkpoint_every;
    hooks.keep_history = opts.contains_key("keep-history");
    let stop = install_sigint();
    hooks.stop = Some(stop.clone());

    // Held for the whole run; dropping the handle at the end of this
    // function stops the accept loop.
    let _metrics = match opts.get("metrics-addr") {
        Some(addr) if !addr.is_empty() => {
            let registry = rlmul::obs::global();
            registry.enable();
            let server = rlmul::obs::serve_metrics(registry, addr)?;
            eprintln!("serving metrics at http://{}/metrics", server.local_addr());
            Some(server)
        }
        _ => None,
    };

    // `--resume` with a value reads that snapshot file; without one it
    // falls back to `latest.ckpt` in the checkpoint directory.
    let resume_from = match opts.get("resume") {
        Some(path) if !path.is_empty() => Some(path.clone()),
        Some(_) => Some(
            store
                .as_ref()
                .ok_or("`--resume` without a path needs `--ckpt-dir`")?
                .latest_path()
                .display()
                .to_string(),
        ),
        None => None,
    };
    match &resume_from {
        Some(path) => eprintln!("resuming {bits}-bit {kind} {method} from {path}…"),
        None => eprintln!("training {bits}-bit {kind} with {method} ({steps} env steps)…"),
    }

    let outcome: OptimizationOutcome = match method {
        "sa" => {
            let sa_cfg = SaConfig { steps, ..Default::default() };
            match &resume_from {
                Some(path) => resume_sa(&env_cfg, &sa_cfg, read_snapshot(path, "sa")?, &hooks)?,
                None => run_sa_with(&env_cfg, &sa_cfg, seed, EvalCache::new(), &hooks, None)?,
            }
        }
        "dqn" => {
            let cfg = DqnConfig { steps, warmup: (steps / 5).max(4), seed, ..Default::default() };
            match &resume_from {
                Some(path) => {
                    let snap = read_snapshot(path, "dqn")?;
                    resume_dqn(&env_cfg, &cfg, snap, &hooks)?
                }
                None => {
                    let mut env = MulEnv::new(env_cfg.clone())?;
                    train_dqn_with(&mut env, &cfg, &hooks, None)?
                }
            }
        }
        "a2c" => {
            let cfg =
                A2cConfig { steps: (steps / 4).max(2), n_envs: 4, seed, ..Default::default() };
            match &resume_from {
                Some(path) => {
                    let snap = read_snapshot(path, "a2c")?;
                    resume_a2c(&env_cfg, &cfg, snap, &hooks)?
                }
                None => train_a2c_with(&env_cfg, &cfg, EvalCache::new(), &hooks, None)?,
            }
        }
        _ => unreachable!("method validated above"),
    };

    if stop.load(Ordering::Relaxed) {
        match &store {
            Some(s) => eprintln!(
                "interrupted — final snapshot rolled to {}; continue with `--resume`",
                s.latest_path().display()
            ),
            None => eprintln!("interrupted (no --ckpt-dir, nothing saved)"),
        }
    }
    if let Some((writer, path)) = writer {
        hooks.telemetry.emit(Event::new("run_end").with("dropped", hooks.telemetry.dropped()));
        drop(hooks);
        writer.close()?;
        eprintln!("telemetry written to {path}");
    }

    let start = outcome.trajectory.first().copied().unwrap_or(f64::NAN);
    println!(
        "cost {start:.3} → {:.3} over {} distinct states ({} synthesis runs)",
        outcome.best_cost, outcome.states_visited, outcome.synth_runs
    );
    println!("pipeline: {}", outcome.pipeline.render());
    let netlist = MultiplierNetlist::elaborate(&outcome.best)?.into_netlist();
    let report = Synthesizer::nangate45().run(&netlist, &SynthesisOptions::default())?;
    println!(
        "best design: {:.0} um^2 @ {:.4} ns, {:.3} mW ({} FA, {} HA, {} stages)",
        report.area_um2,
        report.delay_ns,
        report.power_mw,
        outcome.best.matrix().total32(),
        outcome.best.matrix().total22(),
        outcome.best.stage_count()?
    );
    if let Some(path) = opts.get("verilog") {
        std::fs::write(path, to_verilog(&netlist))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_report(tokens: &[String], opts: &HashMap<String, String>) -> CliResult {
    let path = tokens
        .iter()
        .find(|t| !t.starts_with("--"))
        .ok_or("usage: rlmul report RUN.jsonl [--phase]")?;
    let text = std::fs::read_to_string(path)?;
    let summary = Summary::from_jsonl(&text);
    if opts.contains_key("phase") {
        print!("{}", summary.render_phase_breakdown());
    } else {
        print!("{}", summary.render());
    }
    Ok(())
}

/// Runs the multi-tenant optimization job server until Ctrl-C, then
/// drains: the queue closes, running jobs stop at their next step and
/// stay `running` on disk, and a restart with the same `--dir`
/// re-adopts them (DESIGN.md §16 documents the protocol).
fn cmd_serve(opts: &HashMap<String, String>) -> CliResult {
    let cfg = rlmul::serve::ServeConfig {
        addr: opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7171".into()),
        dir: opts.get("dir").cloned().unwrap_or_else(|| "serve-state".into()).into(),
        workers: get(opts, "workers", 2)?,
        http_workers: get(opts, "http-workers", 2)?,
    };
    let dir = cfg.dir.clone();
    let server = rlmul::serve::Server::start(cfg)?;
    println!(
        "rlmul serve: listening on http://{}/ (state in {})",
        server.local_addr(),
        dir.display()
    );
    println!("rlmul serve: Ctrl-C drains; restart with the same --dir to resume");
    let stop = install_sigint();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("rlmul serve: draining ...");
    server.shutdown();
    eprintln!("rlmul serve: drained; job state persisted in {}", dir.display());
    Ok(())
}

/// Fetches one job's trace from a running job server and reconstructs
/// where its time went: first the raw event timeline (seq, time since
/// the first event, time until the next one, kind, detail), then the
/// per-kind span summary and flamegraph-ready collapsed stacks
/// rendered through the same `obs::flame` machinery `rlmul profile`
/// uses. Each event's duration is the gap to the next event — the
/// phase the event opened.
fn cmd_trace(tokens: &[String], opts: &HashMap<String, String>) -> CliResult {
    use rlmul::obs::json::{parse_object, parse_object_array, JsonObject, JsonValue};
    use rlmul::obs::SpanStat;

    let id: u64 = tokens
        .iter()
        .find(|t| !t.starts_with("--"))
        .and_then(|t| t.parse().ok())
        .ok_or("usage: rlmul trace JOB_ID [--addr ADDR] [--out PATH]")?;
    let default_addr = "127.0.0.1:7171".to_owned();
    let addr = opts.get("addr").filter(|a| !a.is_empty()).unwrap_or(&default_addr);
    let (code, body) =
        rlmul::serve::client::http_call(addr, "GET", &format!("/jobs/{id}/trace"), "")?;
    if code != 200 {
        return Err(format!("GET /jobs/{id}/trace answered {code}: {}", body.trim()).into());
    }
    let record = parse_object(body.as_bytes()).map_err(|e| format!("bad trace body: {e}"))?;
    let trace_id = record.get_str("trace_id").unwrap_or("?").to_owned();
    let dropped = record.get_u64("dropped").unwrap_or(0);
    let events = match record.get("events") {
        Some(JsonValue::Raw(raw)) => {
            parse_object_array(raw).map_err(|e| format!("bad events array: {e}"))?
        }
        _ => Vec::new(),
    };

    println!("trace {trace_id} — job {id}, {} event(s), {dropped} dropped", events.len());
    if events.is_empty() {
        return Ok(());
    }
    let micros_of = |o: &JsonObject| o.get_u64("micros").unwrap_or(0);
    let t0 = micros_of(&events[0]);
    println!("{:>5} {:>10} {:>10}  {:<20} detail", "seq", "t+ms", "dur_ms", "kind");
    for (i, e) in events.iter().enumerate() {
        let micros = micros_of(e);
        let dur = events.get(i + 1).map_or(0, |n| micros_of(n).saturating_sub(micros));
        println!(
            "{:>5} {:>10.3} {:>10.3}  {:<20} {}",
            e.get_u64("seq").unwrap_or(i as u64),
            micros.saturating_sub(t0) as f64 / 1e3,
            dur as f64 / 1e3,
            e.get_str("kind").unwrap_or("?"),
            e.get_str("detail").unwrap_or(""),
        );
    }

    // Aggregate per kind under a root span named after the trace, so
    // the collapsed lines stack into one flame per job.
    let total = micros_of(&events[events.len() - 1]).saturating_sub(t0);
    let mut by_kind: Vec<SpanStat> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let kind = e.get_str("kind").unwrap_or("?");
        let dur_ns =
            events.get(i + 1).map_or(0, |n| micros_of(n).saturating_sub(micros_of(e))) * 1_000;
        let path = format!("{trace_id};{kind}");
        match by_kind.iter_mut().find(|s| s.path == path) {
            Some(s) => {
                s.calls += 1;
                s.incl_ns += dur_ns;
                s.excl_ns += dur_ns;
            }
            None => by_kind.push(SpanStat { path, calls: 1, incl_ns: dur_ns, excl_ns: dur_ns }),
        }
    }
    let mut stats =
        vec![SpanStat { path: trace_id.clone(), calls: 1, incl_ns: total * 1_000, excl_ns: 0 }];
    stats.extend(by_kind);
    println!();
    print!("{}", rlmul::obs::render_span_tree(&stats));
    let collapsed = rlmul::obs::collapsed_from(&stats);
    match opts.get("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, &collapsed)?;
            println!("wrote {} collapsed-stack lines to {path}", collapsed.lines().count());
        }
        _ => {
            println!();
            print!("{collapsed}");
        }
    }
    Ok(())
}

/// Replays a finished run's JSONL log into a fresh registry and serves
/// it as a static Prometheus endpoint, so past runs can be inspected
/// with the same dashboards that watch live training.
fn cmd_serve_metrics(tokens: &[String], opts: &HashMap<String, String>) -> CliResult {
    let path = tokens
        .iter()
        .find(|t| !t.starts_with("--"))
        .ok_or("usage: rlmul serve-metrics RUN.jsonl [--metrics-addr ADDR]")?;
    let text = std::fs::read_to_string(path)?;
    let registry = rlmul::obs::Registry::new();
    let (mut replayed, mut malformed) = (0u64, 0u64);
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match Event::parse_json(line) {
            Ok(e) => {
                replay_event(&registry, &e);
                replayed += 1;
            }
            Err(_) => malformed += 1,
        }
    }
    let default_addr = "127.0.0.1:9090".to_owned();
    let addr = opts.get("metrics-addr").filter(|a| !a.is_empty()).unwrap_or(&default_addr);
    let server = rlmul::obs::serve_metrics(&registry, addr)?;
    eprintln!("replayed {replayed} events from {path} ({malformed} malformed)");
    eprintln!("serving at http://{}/metrics — Ctrl-C to stop", server.local_addr());
    let stop = install_sigint();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    server.shutdown();
    Ok(())
}

/// Maps one telemetry event onto replay metric families. Per-event
/// quantities become counters/histograms; cumulative snapshots (cache
/// hits/misses, writer stats) become gauges where the last record
/// wins — matching what a live scraper would have seen at shutdown.
fn replay_event(reg: &rlmul::obs::Registry, e: &Event) {
    reg.labeled_counter(
        "rlmul_replay_events_total",
        "Telemetry events replayed from the JSONL log, by kind.",
        &[("kind", e.kind())],
    )
    .inc();
    match e.kind() {
        "episode" => {
            if let Some(r) = e.get_f64("reward") {
                reg.histogram("rlmul_replay_episode_reward", "Episode rewards from the log.")
                    .observe(r);
            }
            if let Some(a) = e.get_f64("area_um2") {
                reg.gauge("rlmul_replay_area_um2", "Latest episode area from the log.").set(a);
            }
            if let Some(d) = e.get_f64("delay_ns") {
                reg.gauge("rlmul_replay_delay_ns", "Latest episode delay from the log.").set(d);
            }
        }
        "phase" => {
            if let (Some(name), Some(secs)) = (e.get_str("name"), e.get_f64("secs")) {
                reg.labeled_histogram(
                    "rlmul_replay_phase_seconds",
                    "Per-phase wall time from the log.",
                    &[("phase", name)],
                )
                .observe(secs);
            }
        }
        "cache" => {
            if let Some(h) = e.get_u64("hits") {
                reg.gauge("rlmul_replay_cache_hits", "Latest cumulative cache hits from the log.")
                    .set(h as f64);
            }
            if let Some(m) = e.get_u64("misses") {
                reg.gauge(
                    "rlmul_replay_cache_misses",
                    "Latest cumulative cache misses from the log.",
                )
                .set(m as f64);
            }
        }
        "nn" => {
            if let Some(f) = e.get_f64("flops") {
                reg.counter("rlmul_replay_nn_flops_total", "NN flops recorded in the log.")
                    .add(f.max(0.0) as u64);
            }
        }
        "span" => {
            if let Some(path) = e.get_str("path") {
                let labels: &[(&str, &str)] = &[("path", path)];
                reg.labeled_counter(
                    "rlmul_replay_span_calls_total",
                    "Span call counts from the log.",
                    labels,
                )
                .add(e.get_u64("calls").unwrap_or(0));
                reg.labeled_gauge(
                    "rlmul_replay_span_incl_seconds",
                    "Inclusive span seconds from the log.",
                    labels,
                )
                .add(e.get_f64("incl_secs").unwrap_or(0.0).max(0.0));
                reg.labeled_gauge(
                    "rlmul_replay_span_excl_seconds",
                    "Exclusive span seconds from the log.",
                    labels,
                )
                .add(e.get_f64("excl_secs").unwrap_or(0.0).max(0.0));
            }
        }
        "writer_stats" => {
            for (key, name, help) in [
                ("written", "rlmul_replay_writer_written", "Telemetry records written."),
                ("dropped", "rlmul_replay_writer_dropped", "Telemetry records dropped."),
                ("buffer_hwm", "rlmul_replay_writer_buffer_hwm", "Telemetry buffer high-water."),
            ] {
                if let Some(v) = e.get_u64(key) {
                    reg.gauge(name, help).set(v as f64);
                }
            }
        }
        _ => {}
    }
}

/// Runs a short, fully instrumented search and prints where the time
/// went: the nested span tree first (stderr), then collapsed stacks
/// ready for a flamegraph renderer (stdout or `--out`).
fn cmd_profile(opts: &HashMap<String, String>) -> CliResult {
    let bits: usize = get(opts, "bits", 8)?;
    let kind = parse_kind(opts)?;
    let steps = get_steps(opts, 12)?;
    let seed: u64 = get(opts, "seed", 1)?;
    let mut env_cfg = EnvConfig::new(bits, kind);
    env_cfg.weights = match opts.get("pref").map(String::as_str).unwrap_or("tradeoff") {
        "area" => CostWeights::AREA,
        "timing" => CostWeights::TIMING,
        "tradeoff" => CostWeights::TRADE_OFF,
        other => return Err(format!("unknown pref `{other}`").into()),
    };
    let method = opts.get("method").map(String::as_str).unwrap_or("sa");
    let registry = rlmul::obs::global();
    registry.enable();
    let before = registry.span_stats();
    let hooks = TrainHooks::default();
    eprintln!("profiling {bits}-bit {kind} {method} ({steps} env steps)…");
    match method {
        "sa" => {
            let sa_cfg = SaConfig { steps, ..Default::default() };
            run_sa_with(&env_cfg, &sa_cfg, seed, EvalCache::new(), &hooks, None)?;
        }
        "dqn" => {
            let cfg = DqnConfig { steps, warmup: (steps / 5).max(4), seed, ..Default::default() };
            let mut env = MulEnv::new(env_cfg.clone())?;
            train_dqn_with(&mut env, &cfg, &hooks, None)?;
        }
        "a2c" => {
            let cfg =
                A2cConfig { steps: (steps / 4).max(2), n_envs: 4, seed, ..Default::default() };
            train_a2c_with(&env_cfg, &cfg, EvalCache::new(), &hooks, None)?;
        }
        other => return Err(format!("unknown method `{other}` (dqn|a2c|sa)").into()),
    }
    let stats = registry.span_stats_since(&before);
    eprint!("{}", rlmul::obs::render_span_tree(&stats));
    let collapsed = rlmul::obs::collapsed_from(&stats);
    match opts.get("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, &collapsed)?;
            println!("wrote {} collapsed-stack lines to {path}", collapsed.lines().count());
        }
        _ => print!("{collapsed}"),
    }
    Ok(())
}

fn cmd_export(opts: &HashMap<String, String>) -> CliResult {
    let bits: usize = get(opts, "bits", 8)?;
    let kind = parse_kind(opts)?;
    let netlist = build_structure(opts, bits, kind)?;
    let verilog = to_verilog(&netlist);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, verilog)?;
            println!("wrote {path} ({} gates)", netlist.gates().len());
        }
        None => print!("{verilog}"),
    }
    Ok(())
}

fn cmd_verify(opts: &HashMap<String, String>) -> CliResult {
    let bits: usize = get(opts, "bits", 8)?;
    let kind = parse_kind(opts)?;
    let netlist = build_structure(opts, bits, kind)?;
    if opts.contains_key("formal-cec") {
        return cmd_verify_formal(&netlist, bits, kind);
    }
    let report = check_datapath(&netlist, bits, kind)?;
    println!(
        "{} — {} vectors ({})",
        if report.equivalent { "EQUIVALENT" } else { "MISMATCH" },
        report.vectors,
        if report.exhaustive { "exhaustive" } else { "randomized + corners" }
    );
    if let Some(cex) = report.counterexample {
        println!(
            "counterexample: a={} b={} c={} expected={} got={}",
            cex.a, cex.b, cex.c, cex.expected, cex.got
        );
        return Err("equivalence check failed".into());
    }
    Ok(())
}

fn cmd_verify_formal(netlist: &Netlist, bits: usize, kind: PpgKind) -> CliResult {
    let r = check_formal(netlist, bits, kind)?;
    println!(
        "{} — SAT CEC vs golden {bits}-bit {kind} Dadda reference",
        if r.equivalent { "PROVED" } else { "REFUTED" }
    );
    println!(
        "sweep: {} rounds, {} candidates, {} merged, {} refuted, {} unknown",
        r.sweep.rounds, r.sweep.candidates, r.sweep.proved, r.sweep.refuted, r.sweep.unknown
    );
    println!(
        "cnf: {} vars, {} clauses; {} conflicts, {} decisions, {} propagations",
        r.vars, r.clauses, r.conflicts, r.decisions, r.propagations
    );
    if let Some(cex) = r.counterexample {
        for (name, v) in &cex.inputs {
            println!("counterexample input  {name} = {v}");
        }
        for d in &cex.outputs {
            println!("counterexample output {} = {} (reference {})", d.name, d.left, d.right);
        }
        println!("simulator confirmed: {}", cex.confirmed);
        return Err("formal equivalence check failed".into());
    }
    Ok(())
}

fn cmd_check_src(opts: &HashMap<String, String>) -> CliResult {
    let root = match opts.get("root") {
        Some(path) if !path.is_empty() => std::path::PathBuf::from(path),
        _ => {
            let cwd = std::env::current_dir()?;
            rlmul::check::lint::find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory (try --root)")?
        }
    };
    let report = rlmul::check::lint::run_workspace(&root)?;
    print!("{}", report.render());
    if !report.is_clean() {
        return Err(format!("{} source finding(s)", report.findings.len()).into());
    }
    Ok(())
}

fn cmd_lint(opts: &HashMap<String, String>) -> CliResult {
    let netlist = match opts.get("in") {
        Some(path) if !path.is_empty() => from_verilog(&std::fs::read_to_string(path)?)?,
        _ => {
            let bits: usize = get(opts, "bits", 8)?;
            let kind = parse_kind(opts)?;
            build_structure(opts, bits, kind)?
        }
    };
    let report = rlmul::rtl::lint(&netlist);
    println!("{}", report.render());
    if report.errors() > 0 {
        return Err(format!("{} lint error(s)", report.errors()).into());
    }
    Ok(())
}

fn cmd_synth(opts: &HashMap<String, String>) -> CliResult {
    let bits: usize = get(opts, "bits", 8)?;
    let kind = parse_kind(opts)?;
    let netlist = build_structure(opts, bits, kind)?;
    let synth = Synthesizer::nangate45();
    let options = match opts.contains_key("target") {
        true => SynthesisOptions::with_target(get(opts, "target", 0.0)?),
        false => SynthesisOptions::default(),
    };
    let r = synth.run(&netlist, &options).map_err(|e| match e {
        SynthError::NonFiniteTarget { .. } => {
            format!("invalid value `{}` for --target: {e}", opts["target"])
        }
        e => e.to_string(),
    })?;
    println!("area   {:>9.1} um^2", r.area_um2);
    println!(
        "delay  {:>9.4} ns{}",
        r.delay_ns,
        if r.met_target { "" } else { "  (target missed)" }
    );
    println!("power  {:>9.4} mW", r.power_mw);
    println!(
        "cells  {:>9}   (X1/X2/X4: {}/{}/{})",
        r.num_cells, r.drive_histogram[0], r.drive_histogram[1], r.drive_histogram[2]
    );
    Ok(())
}
