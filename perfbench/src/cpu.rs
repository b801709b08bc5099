//! The process's CPU clock: user + system time of all its threads, ended
//! ones included (`CLOCK_PROCESS_CPUTIME_ID`). Unlike the wall clock it
//! does not advance while the process waits for a core that another
//! process, or another guest of the host, holds.

use std::os::raw::{c_int, c_long};

/// `struct timespec` on Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds this process has used so far.
pub fn process_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout, and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    #[test]
    fn advances_with_work() {
        let t0 = super::process_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(super::process_s() > t0);
    }
}
