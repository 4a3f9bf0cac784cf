//! A spawned `vnet serve` daemon that cannot outlive its test. The
//! guard derefs to the [`Child`]; on drop it kills and reaps a child
//! that has not exited, so a failed assertion never leaves a daemon
//! running. A daemon that was shut down cleanly has already been
//! waited on, and drop leaves it alone.

use std::ops::{Deref, DerefMut};
use std::process::Child;

pub struct DaemonGuard(Child);

impl DaemonGuard {
    pub fn new(child: Child) -> Self {
        DaemonGuard(child)
    }
}

impl Deref for DaemonGuard {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for DaemonGuard {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}
