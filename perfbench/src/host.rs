//! The host fingerprint printed with every result. Results compare only
//! against a baseline with the same fingerprint.

use std::process::{Command, Stdio};

/// What identifies the machine and toolchain a result came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD` when run from the root of a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// Fingerprint of this host and checkout.
    pub fn detect() -> Self {
        Self {
            available_parallelism: cores(),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| cpu_model(&s))
                .unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
        }
    }

    /// One-line JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"available_parallelism\": {}, \"cpu_model\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
            self.available_parallelism,
            escape(&self.cpu_model),
            escape(&self.rustc),
            escape(&self.git_rev)
        )
    }
}

/// Worker threads available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// HEAD of the git checkout rooted at the working directory, if it is one
/// (a checkout nested inside another repository does not count).
fn git_rev() -> Option<String> {
    let git = |args: &[&str]| {
        let out = Command::new("git").args(args).stderr(Stdio::null()).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let top = std::path::PathBuf::from(git(&["rev-parse", "--show-toplevel"])?);
    let here = std::env::current_dir().ok()?;
    if top.canonicalize().ok()? != here.canonicalize().ok()? {
        return None;
    }
    git(&["rev-parse", "HEAD"])
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cpu_model_line() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nflags\t: x\n";
        assert_eq!(cpu_model(info).as_deref(), Some("Example CPU @ 2.0GHz"));
        assert_eq!(cpu_model("flags: x"), None);
    }

    #[test]
    fn json_escapes_quotes() {
        let f = Fingerprint {
            available_parallelism: 2,
            cpu_model: "a\"b".into(),
            rustc: "r".into(),
            git_rev: "g".into(),
        };
        assert!(f.json().contains("\"cpu_model\": \"a\\\"b\""));
    }
}
