//! `zeroed-store-tool`: read-only inspection of a response-store directory.
//!
//! ```text
//! zeroed-store-tool stat   <store-dir>    segments, live/dead, bytes, epochs
//! zeroed-store-tool ls     <store-dir>    live records: key · kind · tokens · epoch
//! zeroed-store-tool verify <store-dir>    full checksum scan; exit 1 on damage
//! ```
//!
//! The tool never takes the store's advisory lock, never truncates a torn
//! tail and never deletes a file — it is safe to run against a directory a
//! detector has open. Damage found by `verify` is reported with its exact
//! recovered-prefix length and left untouched (the writer's recovery, not an
//! inspection tool, decides when to cut).

use std::path::Path;
use std::process::ExitCode;
use zeroed_store::{inspect, verify, VerifyIssue};

fn usage() -> ExitCode {
    eprintln!("usage: zeroed-store-tool <stat|ls|verify> <store-dir>");
    ExitCode::from(2)
}

/// Renders an epoch (seconds since the Unix epoch) for display; epoch 0
/// marks v1-era records with no timestamp.
fn epoch_str(epoch: u64) -> String {
    if epoch == 0 {
        "-".to_string()
    } else {
        format!("{epoch}")
    }
}

fn cmd_stat(dir: &Path) -> std::io::Result<ExitCode> {
    let report = inspect(dir)?;
    println!("store:    {}", report.root.display());
    println!(
        "segments: {}, {} bytes",
        report.segments.len(),
        report.total_file_bytes
    );
    println!("live:     {} records", report.live.len());
    println!(
        "dead:     {} records (awaiting compaction)",
        report.dead_records
    );
    match report.epoch_range() {
        Some((min, max)) => println!("epochs:   {} .. {}", epoch_str(min), epoch_str(max)),
        None => println!("epochs:   (no timestamped records)"),
    }
    for (kind, count) in report.kind_counts() {
        println!("  kind {kind:<10} {count}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_ls(dir: &Path) -> std::io::Result<ExitCode> {
    let report = inspect(dir)?;
    println!(
        "{:<34} {:<10} {:>8} {:>8} {:>12}",
        "key", "kind", "in_tok", "out_tok", "epoch"
    );
    for entry in &report.live {
        println!(
            "{:032x}  {:<10} {:>8} {:>8} {:>12}",
            entry.key,
            entry.kind,
            entry.input_tokens,
            entry.output_tokens,
            epoch_str(entry.epoch)
        );
    }
    eprintln!("{} live record(s)", report.live.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(dir: &Path) -> std::io::Result<ExitCode> {
    let issues = verify(dir)?;
    if issues.is_empty() {
        println!("ok: every segment header and record checksum verified");
        return Ok(ExitCode::SUCCESS);
    }
    for issue in &issues {
        match issue {
            VerifyIssue::TornTail {
                path,
                records_recovered,
                valid_bytes,
                discarded_bytes,
            } => println!(
                "TORN   {}: {} intact record(s) in the first {} bytes, {} trailing byte(s) fail the checksum scan",
                path.display(),
                records_recovered,
                valid_bytes,
                discarded_bytes
            ),
            VerifyIssue::UnreadableHeader {
                path,
                issue,
                file_bytes,
            } => println!(
                "HEADER {}: unusable header ({issue:?}), {} byte(s) unreadable",
                path.display(),
                file_bytes
            ),
        }
    }
    println!(
        "{} issue(s) found (nothing was modified; recovery truncates on the next open)",
        issues.len()
    );
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, dir) = match (args.first(), args.get(1)) {
        (Some(command), Some(dir)) if args.len() == 2 => (command.as_str(), Path::new(dir)),
        _ => return usage(),
    };
    let result = match command {
        "stat" => cmd_stat(dir),
        "ls" => cmd_ls(dir),
        "verify" => cmd_verify(dir),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("zeroed-store-tool: {}: {e}", dir.display());
            ExitCode::FAILURE
        }
    }
}
