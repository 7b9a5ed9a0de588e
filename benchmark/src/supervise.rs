//! Running a workload in a child process under a wall-clock timeout.
//!
//! Each workload runs in a process of its own, so `peak_rss_mb` is per
//! workload and a panic or a hang in the program under test becomes a
//! counted failure instead of a lost run: a child that exits without a
//! result, or is still running at the timeout (it is then killed and
//! reaped), is reported as one operation attempted and failed. The
//! parent only sleeps while the child runs.

use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

/// How a supervised child ended.
#[derive(Debug, PartialEq, Eq)]
pub enum End {
    /// Exited by itself with this code (`None`: killed by a signal).
    Exited(Option<i32>),
    /// Still running at the timeout; killed and reaped.
    TimedOut,
    /// Could not be started.
    NotStarted(String),
}

impl End {
    /// Whether the child ran to completion and reported success.
    #[cfg(test)]
    pub fn success(&self) -> bool {
        *self == End::Exited(Some(0))
    }

    /// One line for the failure report.
    pub fn describe(&self) -> String {
        match self {
            End::Exited(Some(code)) => format!("child exited with code {code}"),
            End::Exited(None) => "child was killed by a signal".into(),
            End::TimedOut => "child timed out and was killed".into(),
            End::NotStarted(e) => format!("child could not be started: {e}"),
        }
    }
}

/// How often the parent looks at the child.
const POLL: Duration = Duration::from_millis(20);

fn wait_until(child: &mut Child, deadline: Instant) -> std::io::Result<Option<ExitStatus>> {
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(POLL);
    }
}

/// Run `cmd` to completion or to `timeout`, whichever comes first. The
/// child inherits stdout and stderr. Never returns while the child is
/// still alive.
pub fn run(cmd: &mut Command, timeout: Duration) -> End {
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return End::NotStarted(e.to_string()),
    };
    match wait_until(&mut child, Instant::now() + timeout) {
        Ok(Some(status)) => End::Exited(status.code()),
        Ok(None) | Err(_) => {
            // Kill can only fail if the child is already gone; wait reaps it either way.
            let _ = child.kill();
            let _ = child.wait();
            End::TimedOut
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The test binary itself, running exactly one of the `child_*`
    /// helpers below.
    fn helper(name: &str) -> Command {
        let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
        cmd.args(["--ignored", "--exact", &format!("supervise::tests::{name}")]);
        cmd.stdout(std::process::Stdio::null()).stderr(std::process::Stdio::null());
        cmd
    }

    #[test]
    #[ignore = "helper process for the tests below"]
    fn child_panics() {
        panic!("the workload panicked");
    }

    #[test]
    #[ignore = "helper process for the tests below"]
    fn child_hangs() {
        std::thread::sleep(Duration::from_secs(600));
    }

    #[test]
    #[ignore = "helper process for the tests below"]
    fn child_succeeds() {}

    #[test]
    fn a_panicking_child_is_a_counted_failure() {
        let end = run(&mut helper("child_panics"), Duration::from_secs(30));
        assert_eq!(end, End::Exited(Some(101)));
        assert!(!end.success());
        let r = crate::report::failure_result(&end);
        assert_eq!((r.attempted, r.failed, r.correct), (1, 1, false));
    }

    #[test]
    fn a_hanging_child_is_killed_at_the_timeout_and_counted() {
        let t0 = Instant::now();
        let end = run(&mut helper("child_hangs"), Duration::from_millis(300));
        assert_eq!(end, End::TimedOut);
        assert!(t0.elapsed() < Duration::from_secs(20), "the parent must not wait for the hang");
        let r = crate::report::failure_result(&end);
        assert_eq!((r.attempted, r.failed, r.correct), (1, 1, false));
        assert_eq!(r.fail_ratio(), 1.0);
    }

    #[test]
    fn a_clean_child_is_a_success_and_a_missing_program_is_not() {
        assert!(run(&mut helper("child_succeeds"), Duration::from_secs(30)).success());
        let end = run(&mut Command::new("/nonexistent/revmon-benchmark"), Duration::from_secs(1));
        assert!(matches!(end, End::NotStarted(_)));
    }
}
