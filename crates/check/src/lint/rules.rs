//! The rule catalogue.
//!
//! Every rule is deny-by-default over its configured file set; the
//! only escape is an inline `// check: allow(<rule>)` on (or directly
//! above) the flagged line, which keeps every exception visible and
//! justified at the use site. Rules skip `#[cfg(test)]`/`#[test]`
//! regions — tests may time things and unwrap freely.

use super::scan::ScannedFile;
use super::Finding;

/// `wall-clock`: no `Instant`/`SystemTime` in determinism-critical
/// code. A wall-clock read that influences control flow or serialized
/// state breaks bit-identical resume; reads that only feed timing
/// *stats* (obs histograms, telemetry phase events) are classified as
/// allowed at the use site.
pub const WALL_CLOCK: &str = "wall-clock";

/// `hash-iter`: no `HashMap`/`HashSet` in ordering-critical files
/// (snapshot codecs, telemetry serialization, cache export). Their
/// iteration order is nondeterministic across processes, so any map
/// that can feed serialized bytes must be a `BTreeMap` or be sorted
/// explicitly — in which case the declaration carries an allow
/// pointing at the sort.
pub const HASH_ITER: &str = "hash-iter";

/// `panic-path`: no `unwrap`/`expect`/`panic!`-family calls in paths
/// that read untrusted bytes. A malformed request or snapshot file
/// must produce an error value (a logged 400/500 response, an
/// `InvalidData` error), never kill the thread reading it.
pub const PANIC_PATH: &str = "panic-path";

/// `crate-attrs`: every crate root carries `#![forbid(unsafe_code)]`,
/// and the documented-API crates carry `#![deny(missing_docs)]`.
pub const CRATE_ATTRS: &str = "crate-attrs";

/// `trace-ctx`: event-emission sites in the job server and the
/// driver-facing core must carry per-job trace context — either the
/// emission goes through a `TraceCtx` (so the event lands in the
/// job's causally-ordered timeline) or the line is allow-escaped with
/// a justification that the event is genuinely context-free (process-
/// wide aggregates). Keeps uncorrelated events from silently
/// reappearing as the server grows.
pub const TRACE_CTX: &str = "trace-ctx";

/// All rule IDs, for `--help`-style listings and allow validation.
pub const ALL_RULES: [&str; 5] = [WALL_CLOCK, HASH_ITER, PANIC_PATH, CRATE_ATTRS, TRACE_CTX];

/// Files (workspace-relative, `/`-separated; a trailing `/` means
/// prefix match) where `wall-clock` applies: the snapshot codec and
/// PRNG crates plus the snapshot-relevant evaluation paths.
pub const WALL_CLOCK_PATHS: [&str; 8] = [
    "crates/ckpt/src/",
    "crates/rand/src/",
    "crates/core/src/surrogate.rs",
    "crates/core/src/env.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/ckpt.rs",
    "crates/synth/src/synth.rs",
    "crates/synth/src/inc.rs",
];

/// Files where `hash-iter` applies: everything that serializes state
/// (checkpoint codecs, the JSON codec, telemetry JSONL) or exports
/// cache contents.
pub const HASH_ITER_PATHS: [&str; 9] = [
    "crates/ckpt/src/",
    "crates/obs/src/json.rs",
    "crates/telemetry/src/",
    "crates/core/src/ckpt.rs",
    "crates/core/src/cache.rs",
    "crates/synth/src/ckpt.rs",
    "crates/nn/src/ckpt.rs",
    "crates/nn/src/io.rs",
    "crates/serve/src/",
];

/// Files where `panic-path` applies: paths that read untrusted bytes.
/// The job server's routing and state-mutation layers and the JSON
/// codec are all on the request path of a long-running daemon; the
/// job log's replay, recovery and frame reader decode whatever a crash
/// left on disk; the network snapshot readers decode files from disk;
/// the telemetry event parser and report read arbitrary JSONL for
/// `rlmul report`.
pub const PANIC_PATH_PATHS: [&str; 10] = [
    "crates/obs/src/http.rs",
    "crates/obs/src/json.rs",
    "crates/serve/src/api.rs",
    "crates/serve/src/server.rs",
    "crates/ckpt/src/log.rs",
    "crates/ckpt/src/file.rs",
    "crates/nn/src/io.rs",
    "crates/nn/src/ckpt.rs",
    "crates/telemetry/src/event.rs",
    "crates/telemetry/src/report.rs",
];

/// Files where `trace-ctx` applies: the job server plus the core
/// files whose events describe per-job work (the environment's
/// synthesis/cache path and the driver hooks).
pub const TRACE_CTX_PATHS: [&str; 3] =
    ["crates/serve/src/", "crates/core/src/env.rs", "crates/core/src/hooks.rs"];

/// Crates whose public API is documented under `deny(missing_docs)`
/// (the existing crate contract; extend as crates are upgraded).
pub const MISSING_DOCS_CRATES: [&str; 7] =
    ["check", "ckpt", "lec", "obs", "sat", "serve", "telemetry"];

/// Whether `path` (workspace-relative, `/`-separated) is covered by
/// the given path set.
pub fn path_matches(path: &str, set: &[&str]) -> bool {
    set.iter().any(|p| if p.ends_with('/') { path.starts_with(p) } else { path == *p })
}

/// Searches `code` for `needle` at identifier boundaries (the char
/// before and after must not be part of an identifier).
fn find_token(code: &str, needle: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(rel) = code[from..].find(needle) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Emits one finding per flagged line unless the line carries an
/// allow for `rule`.
fn flag_lines(
    file: &ScannedFile,
    path: &str,
    rule: &'static str,
    needles: &[&str],
    message: &str,
    out: &mut Vec<Finding>,
) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let hit = needles.iter().any(|n| find_token(&line.code, n).is_some());
        if !hit {
            continue;
        }
        if line.allows.iter().any(|a| a == rule) {
            continue;
        }
        out.push(Finding {
            rule,
            path: path.to_string(),
            line: idx + 1,
            message: message.to_string(),
            snippet: line.code.trim().to_string(),
        });
    }
}

/// Runs `wall-clock` over one scanned file.
pub fn check_wall_clock(file: &ScannedFile, path: &str, out: &mut Vec<Finding>) {
    if !path_matches(path, &WALL_CLOCK_PATHS) {
        return;
    }
    flag_lines(
        file,
        path,
        WALL_CLOCK,
        &["Instant", "SystemTime"],
        "wall-clock read in determinism-critical code; timing-stats uses \
         must carry `// check: allow(wall-clock)` with a justification",
        out,
    );
}

/// Runs `hash-iter` over one scanned file.
pub fn check_hash_iter(file: &ScannedFile, path: &str, out: &mut Vec<Finding>) {
    if !path_matches(path, &HASH_ITER_PATHS) {
        return;
    }
    flag_lines(
        file,
        path,
        HASH_ITER,
        &["HashMap", "HashSet"],
        "HashMap/HashSet in an ordering-critical file: iteration order \
         can leak into serialized bytes; use BTreeMap/BTreeSet or sort \
         before serializing (and justify with `// check: allow(hash-iter)`)",
        out,
    );
}

/// Runs `panic-path` over one scanned file.
pub fn check_panic_path(file: &ScannedFile, path: &str, out: &mut Vec<Finding>) {
    if !path_matches(path, &PANIC_PATH_PATHS) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || line.allows.iter().any(|a| a == PANIC_PATH) {
            continue;
        }
        let code = &line.code;
        let hit = code.contains(".unwrap()")
            || code.contains(".expect(")
            || find_token(code, "panic!").is_some()
            || find_token(code, "unreachable!").is_some()
            || find_token(code, "todo!").is_some()
            || find_token(code, "unimplemented!").is_some();
        if hit {
            out.push(Finding {
                rule: PANIC_PATH,
                path: path.to_string(),
                line: idx + 1,
                message: "panicking call in a path that reads untrusted bytes; return \
                          an error (a logged 400/500 response) instead"
                    .to_string(),
                snippet: code.trim().to_string(),
            });
        }
    }
}

/// Runs `trace-ctx` over one scanned file: flags emission sites
/// (`.emit(` calls and `Event::new` constructions) whose line shows
/// no trace correlation — no `trace`/`TraceCtx` token and no
/// `emit_forced` (which is only callable on a `TraceCtx`).
pub fn check_trace_ctx(file: &ScannedFile, path: &str, out: &mut Vec<Finding>) {
    if !path_matches(path, &TRACE_CTX_PATHS) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || line.allows.iter().any(|a| a == TRACE_CTX) {
            continue;
        }
        let code = &line.code;
        let emits = code.contains(".emit(") || code.contains("Event::new");
        if !emits {
            continue;
        }
        let correlated = find_token(code, "trace").is_some()
            || code.contains("TraceCtx")
            || code.contains("emit_forced");
        if correlated {
            continue;
        }
        out.push(Finding {
            rule: TRACE_CTX,
            path: path.to_string(),
            line: idx + 1,
            message: "event emission without per-job trace context; route it \
                      through the job's TraceCtx, or justify with \
                      `// check: allow(trace-ctx)` if it is genuinely \
                      context-free"
                .to_string(),
            snippet: code.trim().to_string(),
        });
    }
}

/// Runs `crate-attrs` over one crate-root file (`src/lib.rs`).
/// `crate_name` is the directory under `crates/` (empty for the
/// workspace root crate).
pub fn check_crate_attrs(source: &str, path: &str, crate_name: &str, out: &mut Vec<Finding>) {
    if !source.contains("#![forbid(unsafe_code)]") {
        out.push(Finding {
            rule: CRATE_ATTRS,
            path: path.to_string(),
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            snippet: String::new(),
        });
    }
    if MISSING_DOCS_CRATES.contains(&crate_name) && !source.contains("#![deny(missing_docs)]") {
        out.push(Finding {
            rule: CRATE_ATTRS,
            path: path.to_string(),
            line: 1,
            message: "documented-API crate is missing `#![deny(missing_docs)]`".to_string(),
            snippet: String::new(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::scan::scan;
    use super::*;

    #[test]
    fn wall_clock_flags_and_allows() {
        let src = "use std::time::Instant;\nlet t = Instant::now(); // check: allow(wall-clock) stats only\n";
        let f = scan(src);
        let mut out = Vec::new();
        check_wall_clock(&f, "crates/ckpt/src/file.rs", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn wall_clock_skips_unconfigured_files_and_tests() {
        let src = "#[cfg(test)]\nmod tests { use std::time::Instant; }\n";
        let f = scan(src);
        let mut out = Vec::new();
        check_wall_clock(&f, "crates/ckpt/src/file.rs", &mut out);
        assert!(out.is_empty(), "{out:?}");
        let g = scan("use std::time::Instant;\n");
        check_wall_clock(&g, "crates/bench/src/lib.rs", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn hash_iter_flags_maps_not_substrings() {
        let f = scan("struct MyHashMapLike;\nuse std::collections::HashMap;\n");
        let mut out = Vec::new();
        check_hash_iter(&f, "crates/obs/src/json.rs", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn panic_path_distinguishes_unwrap_or() {
        let src = "let a = x.unwrap_or(0);\nlet b = y.unwrap();\nlet c = z.expect(\"boom\");\n";
        let f = scan(src);
        let mut out = Vec::new();
        check_panic_path(&f, "crates/obs/src/http.rs", &mut out);
        let lines: Vec<usize> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3], "{out:?}");
    }

    #[test]
    fn trace_ctx_flags_uncorrelated_emissions() {
        let src = "sink.emit(Event::new(\"orphan\"));\n\
                   hooks.trace.emit(\"step\", \"steps_done=3\");\n\
                   sink.emit(ev); // check: allow(trace-ctx) process aggregate\n\
                   sink.emit(Event::trace(&id, e.seq, e.micros, &e.kind, &e.detail));\n";
        let f = scan(src);
        let mut out = Vec::new();
        check_trace_ctx(&f, "crates/serve/src/server.rs", &mut out);
        let lines: Vec<usize> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1], "{out:?}");
        // Unconfigured files are never flagged.
        out.clear();
        check_trace_ctx(&f, "crates/obs/src/json.rs", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn crate_attrs_requires_contract_attrs() {
        let mut out = Vec::new();
        check_crate_attrs("//! docs\n", "crates/ckpt/src/lib.rs", "ckpt", &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        out.clear();
        check_crate_attrs(
            "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n",
            "crates/ckpt/src/lib.rs",
            "ckpt",
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        // Non-contract crates need only forbid(unsafe_code).
        check_crate_attrs(
            "#![forbid(unsafe_code)]\n",
            "crates/bench/src/lib.rs",
            "bench",
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
