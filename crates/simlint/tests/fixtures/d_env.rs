//! D-ENV fixture: environment-variable reads in simulation code.
//! Expected (Sim scope): 2 fired, 1 suppressed.
//! Expected (Bench scope): 0 fired (bench harness knobs may read the env).

fn debug_enabled() -> bool {
    std::env::var("DEBUG").is_ok() // fires: line 6
}

use std::env::{self, vars_os}; // fires: line 9

fn threads() -> Option<String> {
    // simlint: allow(D-ENV) — fixture: a documented, audited read.
    env::var("THREADS").ok() // suppressed
}

fn program() -> Option<String> {
    std::env::args().next() // not a variable read: quiet
}

#[cfg(test)]
mod tests {
    #[test]
    fn gated() {
        // Test-gated reads are exempt (snapshot-regeneration switches).
        let _ = std::env::var_os("UPDATE_SNAPSHOT");
    }
}
