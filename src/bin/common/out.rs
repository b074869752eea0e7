//! The one way both command-line tools write: lines to stdout through
//! [`outln!`], and a failure through [`fail`]. Each binary includes this
//! file as its `out` module; it is not part of the library's API.
//!
//! `println!` panics when stdout is a closed pipe (`clusterlab compare
//! ... | head -1`), printing a backtrace and exiting 101. Here a reader
//! that has gone away ends the run at once, quietly, with exit 0, as it
//! ends `cat`: a live `tail -f log | l2s-replay --log - | head` stops
//! replaying instead of running on for no one. Any other write error
//! exits 2 and names the error.

use std::fmt;
use std::io::{self, Write};
use std::process;

/// Writes one line to stdout; see the module docs for a failed write.
pub fn line(args: fmt::Arguments<'_>) {
    match writeln!(io::stdout().lock(), "{args}") {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => process::exit(0),
        Err(e) => fail(&format!("writing to stdout: {e}")),
    }
}

/// Prints `error: {message}` to stderr and exits 2. A stderr that cannot
/// be written to is ignored: the exit code still tells.
pub fn fail(message: &str) -> ! {
    let _ = writeln!(io::stderr(), "error: {message}");
    process::exit(2)
}

/// `println!` through [`line`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::line(format_args!($($arg)*))
    };
}
pub(crate) use outln;
