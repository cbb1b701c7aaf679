//! FNV-1a (128-bit) over formatted text, without building the text.

use std::fmt;

const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A running digest; feed it with `write!` and read it with [`Digest::hex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u128);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u128).wrapping_mul(PRIME);
        }
        Ok(())
    }
}

impl Digest {
    /// Digest of `args` formatted.
    pub fn of(args: fmt::Arguments<'_>) -> Digest {
        let mut d = Digest::default();
        fmt::write(&mut d, args).expect("hashing never fails");
        d
    }

    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn streaming_equals_one_shot() {
        let mut d = Digest::default();
        write!(d, "a{}", 1).unwrap();
        write!(d, "b").unwrap();
        assert_eq!(d, Digest::of(format_args!("a1b")));
        assert_ne!(d, Digest::of(format_args!("a1c")));
    }
}
