//! `spawn`: runs a command and reports its exit code, wall time and the
//! peak resident set of its process tree. The benchmark launches every
//! measured process through this small program, because a child forked
//! from the (larger) benchmark script inherits the script's resident
//! high-water mark in its own `ru_maxrss`.

use std::os::raw::{c_int, c_long};
use std::process::Command;
use std::time::Instant;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_CHILDREN: c_int = -1;

/// Peak resident set, in KiB, of the largest waited-for descendant.
fn children_maxrss_kb() -> Result<c_long, String> {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `getrusage` writes exactly one `struct rusage` through the
    // pointer, which refers to a live, writable `Rusage` whose #[repr(C)]
    // layout matches the 64-bit Linux definition.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(ru.maxrss)
}

/// Runs `argv` with inherited standard streams and prints one
/// `perfbench-spawn exit=<code> wall_s=<s> maxrss_kb=<kb>` line on
/// stderr; a signal death reports the negated signal number.
pub fn run(argv: &[String]) -> Result<(), String> {
    use std::os::unix::process::ExitStatusExt;
    let (prog, args) = argv.split_first().ok_or("spawn needs a command")?;
    let t = Instant::now();
    let status = Command::new(prog)
        .args(args)
        .status()
        .map_err(|e| format!("{prog}: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    let code = status
        .code()
        .unwrap_or_else(|| -status.signal().unwrap_or(0));
    let rss = children_maxrss_kb()?;
    eprintln!("perfbench-spawn exit={code} wall_s={wall} maxrss_kb={rss}");
    Ok(())
}
