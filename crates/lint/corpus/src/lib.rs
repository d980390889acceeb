//! Planted defects, one per rule the workspace clippy configuration
//! carries. Each line that must fire ends in a `fires:` comment naming
//! its lints; `scripts/ci.sh` checks that clippy reports exactly those
//! (line, lint) pairs, so a missing lint and a false positive both fail
//! the step.

use std::collections::{HashMap, HashSet}; // fires: clippy::disallowed_types clippy::disallowed_types
use std::time::{Instant, SystemTime}; // fires: clippy::disallowed_types clippy::disallowed_types

/// Hash containers and clock reads (`det-hash-container`, `det-wall-clock`).
pub fn nondeterministic_state(m: &HashMap<u32, u32>, s: &HashSet<u32>) -> usize { // fires: clippy::disallowed_types clippy::disallowed_types
    let _t: Instant = Instant::now(); // fires: clippy::disallowed_types clippy::disallowed_types
    let _w: SystemTime = SystemTime::now(); // fires: clippy::disallowed_types clippy::disallowed_types
    m.len() + s.len()
}

/// Host threads (`det-thread`).
pub fn host_threads() -> usize {
    std::thread::spawn(|| {}); // fires: clippy::disallowed_methods
    std::thread::sleep(std::time::Duration::ZERO); // fires: clippy::disallowed_methods
    std::thread::scope(|_| {}); // fires: clippy::disallowed_methods
    std::thread::available_parallelism().map_or(1, usize::from) // fires: clippy::disallowed_methods
}

/// Pointer formatting (`det-ptr-format`).
pub fn pointer_text(x: &u32) -> String {
    format!("{x:p}") // fires: clippy::pointer_format
}

/// Panics in library code (`panic-unwrap`, `panic-expect`, `panic-macro`).
pub fn panics(o: Option<u32>, kind: u8) -> u32 {
    match kind {
        0 => o.unwrap(), // fires: clippy::unwrap_used
        1 => o.expect("set"), // fires: clippy::expect_used
        2 => panic!("bad kind"), // fires: clippy::panic
        3 => todo!(), // fires: clippy::todo
        _ => unimplemented!(), // fires: clippy::unimplemented
    }
}

/// Debugging debris and stdout (`hygiene-dbg`, `hygiene-println`).
pub fn hygiene(x: u32) -> u32 {
    println!("x = {x}"); // fires: clippy::print_stdout
    dbg!(x) // fires: clippy::dbg_macro
}

/// A fallible call whose `Result` the next fn discards.
pub fn fallible() -> Result<(), String> {
    Ok(())
}

/// Dropped results (`result-dropped`): a wildcard `let` and a bare
/// statement.
pub fn dropped_results() {
    let _ = fallible(); // fires: clippy::let_underscore_must_use
    fallible(); // fires: unused_must_use
}

/// A parser whose own `expect` returns a typed error: a token matcher
/// takes these calls for panics; clippy sees the type and stays silent.
pub struct Parser {
    bytes: Vec<u8>,
    at: usize,
}

impl Parser {
    /// Consumes `b` or reports where it was missing.
    pub fn expect(&mut self, b: u8) -> Result<(), usize> {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.at)
        }
    }

    /// Parses `()`.
    pub fn unit(&mut self) -> Result<(), usize> {
        self.expect(b'(')?;
        self.expect(b')')
    }
}

#[cfg(test)]
mod tests {
    fn one() -> u32 {
        Some(1).unwrap()
    }

    #[test]
    fn tests_may_unwrap() {
        assert_eq!(one(), 1);
    }
}
