//! The tag bytes a wire enum's decoder accepts, shared by the tests
//! that must cover every one of them.

use std::collections::BTreeSet;

use icg_net::wire::from_bytes;
use icg_net::{Wire, WireError};

/// Every byte `E`'s decoder takes as a tag: a one-byte input it does not
/// reject as [`WireError::BadTag`] (a known tag without its body is
/// `Truncated`).
pub fn decodable_tags<E: Wire>() -> BTreeSet<u8> {
    (0..=u8::MAX)
        .filter(|&t| !matches!(from_bytes::<E>(&[t]), Err(WireError::BadTag { .. })))
        .collect()
}

/// `tags` as `0x01, 0x12`.
pub fn list<'a>(tags: impl IntoIterator<Item = &'a u8>) -> String {
    let hex: Vec<String> = tags.into_iter().map(|t| format!("{t:#04x}")).collect();
    hex.join(", ")
}
