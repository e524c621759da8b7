// Fixture: U01's consumer crate. Its own items are private, so it
// declares nothing U01 tracks.
pub use alpha::reexported_only;
use alpha::{Config, Mode};

/// Calls [`reexported_only`] in a doc link only.
fn consume(c: &Config) -> u32 {
    let _ = Mode::Live;
    alpha::called_by_beta();
    alpha::used_by_beta() + c.read_field
}
