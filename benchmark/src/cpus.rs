//! Thread placement for `tcp_mixed` and `pool_preempt`. On this two-vCPU
//! guest a thread woken on the other, halted vCPU pays an exit to the
//! hypervisor, and what that costs drifts by the minute (README, "Taking
//! the host out of the numbers"). So the measured path is laid out to
//! need no such wake-up: the pool's worker has one CPU to itself, and the
//! connection threads share the other with the clients, which poll
//! instead of sleeping.
//!
//! A thread inherits its creator's mask, so pinning the thread that calls
//! `Server::start` or `Database::open` places every thread they start;
//! the worker is then moved by name (the program names its threads; the
//! benchmark reads its own `/proc/self/task`).

use std::io;

const WORDS: usize = 16;

/// A CPU set as the kernel takes it: one bit per CPU, 1024 CPUs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mask([u64; WORDS]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl Mask {
    /// The CPUs the calling thread may run on.
    pub fn current() -> io::Result<Mask> {
        let mut m = Mask([0; WORDS]);
        // SAFETY: the buffer is WORDS * 8 bytes long, as the size says.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, m.0.as_mut_ptr()) };
        if rc == 0 {
            Ok(m)
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn only(cpu: usize) -> Mask {
        let mut m = Mask([0; WORDS]);
        m.0[cpu / 64] |= 1 << (cpu % 64);
        m
    }

    /// The CPUs in the set, lowest first.
    pub fn cpus(&self) -> Vec<usize> {
        (0..WORDS * 64)
            .filter(|c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restricts thread `tid` of this process (0: the calling thread).
    pub fn apply(&self, tid: i32) -> io::Result<()> {
        // SAFETY: the buffer is WORDS * 8 bytes long, as the size says.
        let rc = unsafe { sched_setaffinity(tid, WORDS * 8, self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// Two CPUs for a rig, and the mask to give back afterwards.
pub struct Layout {
    original: Mask,
    /// Where the pool's workers run.
    worker: usize,
    /// Where the connection threads and the clients run.
    front: usize,
}

impl Layout {
    /// Pins the calling thread to the front CPU. `None` when the process
    /// has a single CPU (nothing to lay out) or the kernel refuses.
    pub fn enter() -> Option<Layout> {
        let original = Mask::current().ok()?;
        let cpus = original.cpus();
        let (&worker, &front) = (cpus.first()?, cpus.get(1)?);
        Mask::only(front).apply(0).ok()?;
        Some(Layout {
            original,
            worker,
            front,
        })
    }

    /// Moves every thread of this process whose name starts with `prefix`
    /// to the worker CPU. Returns how many were moved.
    pub fn move_workers(&self, prefix: &str) -> io::Result<usize> {
        let mut moved = 0;
        for entry in std::fs::read_dir("/proc/self/task")? {
            let entry = entry?;
            let name = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
            let tid = entry.file_name().to_string_lossy().parse::<i32>();
            if let (true, Ok(tid)) = (name.starts_with(prefix), tid) {
                Mask::only(self.worker).apply(tid)?;
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// For the run's log.
    pub fn describe(layout: &Option<Layout>) -> String {
        match layout {
            Some(l) => format!("worker cpu {}, front cpu {}", l.worker, l.front),
            None => "none (one CPU, or the kernel refused)".to_string(),
        }
    }
}

impl Drop for Layout {
    fn drop(&mut self) {
        let _ = self.original.apply(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_lists_its_cpus() {
        assert_eq!(Mask::only(0).cpus(), vec![0]);
        assert_eq!(Mask::only(65).cpus(), vec![65]);
    }

    #[test]
    fn layout_restores_the_mask() {
        let before = Mask::current().expect("affinity is readable");
        if let Some(layout) = Layout::enter() {
            assert_eq!(Mask::current().unwrap().cpus(), vec![layout.front]);
        }
        assert_eq!(Mask::current().unwrap(), before);
    }
}
