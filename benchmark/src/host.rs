//! Facts about the host and build that every result records, so numbers
//! from different machines or toolchains are never compared unknowingly.

use serde_json::{json, Value};
use std::path::Path;
use std::process::{Command, Stdio};

/// The host block of a result.
pub struct Host {
    /// Cores this process may run on.
    pub nproc: usize,
    cpu_model: String,
    rustc: String,
    rustflags: &'static str,
    git_rev: String,
}

impl Host {
    /// Reads the host facts.
    pub fn collect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark sits inside the repository");
        let mut git = Command::new("git");
        git.args(["rev-parse", "--short", "HEAD"]).current_dir(root);
        // Look for a repository at the root only, never in its parents.
        if let Some(parent) = root.parent() {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: output_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            rustflags: option_env!("RUSTFLAGS").unwrap_or(""),
            git_rev: output_of(&mut git).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The block as JSON.
    pub fn to_json(&self) -> Value {
        json!({
            "nproc": (self.nproc as u64),
            "cpu_model": self.cpu_model.as_str(),
            "rustc": self.rustc.as_str(),
            "rustflags": self.rustflags,
            "git_rev": self.git_rev.as_str(),
        })
    }
}

/// A command's trimmed standard output, if it ran and succeeded.
fn output_of(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// This process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
