//! The machine and build a result was measured on, and process memory.

use std::path::Path;
use std::process::Command;

use crate::json::quote;

/// Where and how a run was measured.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Commit of the measured tree, when it is a git checkout.
    pub git_sha: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// The `calloc_tensor::par` thread budget in force.
    pub threads: usize,
}

impl Machine {
    /// Records the current machine.
    pub fn current() -> Machine {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Asking git from a tree that is not itself a checkout would
        // report whatever repository happens to enclose it.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let git_sha = if root.join(".git").exists() {
            command_output(
                Command::new("git")
                    .arg("-C")
                    .arg(&root)
                    .args(["rev-parse", "HEAD"]),
            )
        } else {
            None
        };
        Machine {
            available_parallelism: available_parallelism(),
            cpu_model,
            rustc: command_output(Command::new("rustc").arg("-V"))
                .unwrap_or_else(|| "unknown".to_string()),
            git_sha: git_sha.unwrap_or_else(|| "unknown (not a git checkout)".to_string()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            threads: calloc_tensor::par::threads(),
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_sha\": {}, \"profile\": {}, \"threads\": {}}}",
            self.available_parallelism,
            quote(&self.cpu_model),
            quote(&self.rustc),
            quote(&self.git_sha),
            quote(self.profile),
            self.threads,
        )
    }
}

/// `std::thread::available_parallelism`, 1 when it cannot be read.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Trimmed standard output of a command that succeeded.
fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
