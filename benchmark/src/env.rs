//! The environment a result was measured in. Printed on stdout and
//! written at the head of every result file, so a number is never quoted
//! without the cores, commit, compiler and parameters it came from.

use crate::json::quote;
use crate::workload::Spec;
use std::process::Command;

pub struct Env {
    pub nproc: usize,
    /// Closed-loop client threads: `min(2, nproc)`.
    pub clients: usize,
    pub git_rev: String,
    pub git_dirty: Option<bool>,
    pub rustc: String,
}

/// Runs a tool to completion and returns its trimmed stdout.
fn tool_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

impl Env {
    pub fn capture() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self {
            nproc,
            clients: nproc.min(2),
            // An exported checkout has no repository to ask.
            git_rev: tool_output("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown".to_owned()),
            git_dirty: tool_output("git", &["status", "--porcelain"]).map(|s| !s.is_empty()),
            rustc: tool_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
        }
    }

    /// The header as one JSON object.
    pub fn header_json(
        &self,
        spec: &Spec,
        seed: u64,
        seconds: f64,
        smoke: bool,
        traced: bool,
    ) -> String {
        format!(
            "{{\"workload\": {}, \"nproc\": {}, \"clients\": {}, \"git_rev\": {}, \"git_dirty\": {}, \
             \"rustc\": {}, \"profile\": \"release\", \"debug_assertions\": false, \"seed\": {seed}, \
             \"seconds\": {seconds}, \"smoke\": {smoke}, \"traced\": {traced}, \"params\": {{{}}}}}",
            quote(spec.name),
            self.nproc,
            self.clients,
            quote(&self.git_rev),
            self.git_dirty.map_or("null".to_owned(), |d| d.to_string()),
            quote(&self.rustc),
            spec.params_json(),
        )
    }
}

/// Restarts the kernel's peak-RSS watermark for this process, so the next
/// [`peak_rss_mib`] is the peak since now. Returns `false` where the
/// kernel does not allow it; the peak then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
