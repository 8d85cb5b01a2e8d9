//! Byte-stream packetization into fixed-width data words.
//!
//! A byte stream is a bit stream (byte `i`, bit `j` LSB-first ↦
//! stream bit `8·i + j`, matching `BitVec`'s packing) chopped into
//! `word_len`-bit data words; the final word is zero-padded. The
//! original byte length travels out of band (the stream report), so
//! depacketization drops the padding exactly.

use fec_gf2::BitVec;

/// Splits a byte stream into `word_len`-bit words and back.
#[derive(Clone, Copy, Debug)]
pub struct Packetizer {
    word_len: usize,
}

impl Packetizer {
    /// A packetizer for `word_len`-bit data words.
    ///
    /// # Panics
    /// Panics if `word_len` is zero.
    pub fn new(word_len: usize) -> Packetizer {
        assert!(word_len > 0, "word_len must be positive");
        Packetizer { word_len }
    }

    /// Bits per data word.
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Number of words `byte_len` bytes packetize into.
    pub fn words_for(&self, byte_len: usize) -> usize {
        (8 * byte_len).div_ceil(self.word_len)
    }

    /// Splits `bytes` into data words (last one zero-padded).
    pub fn packetize(&self, bytes: &[u8]) -> Vec<BitVec> {
        let count = self.words_for(bytes.len());
        let bits = count * self.word_len;
        // the stream's packed words, zero past the last byte
        let mut words = vec![0u64; bits.div_ceil(64)];
        for (w, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            *w = u64::from_le_bytes(le);
        }
        let stream = BitVec::from_words(words, bits);
        (0..count)
            .map(|j| stream.slice(j * self.word_len..(j + 1) * self.word_len))
            .collect()
    }

    /// Reassembles `byte_len` bytes from data words, dropping the
    /// final word's padding.
    ///
    /// # Panics
    /// Panics if the words cannot cover `byte_len` bytes or have the
    /// wrong width.
    pub fn depacketize(&self, words: &[BitVec], byte_len: usize) -> Vec<u8> {
        assert!(
            words.len() >= self.words_for(byte_len),
            "depacketize: {} words cannot cover {byte_len} bytes",
            words.len()
        );
        let mut bytes = vec![0u8; byte_len];
        for (wi, w) in words.iter().enumerate().take(self.words_for(byte_len)) {
            assert_eq!(w.len(), self.word_len, "depacketize: word width");
            for i in w.iter_ones() {
                let bit = wi * self.word_len + i;
                if bit < 8 * byte_len {
                    bytes[bit / 8] |= 1 << (bit % 8);
                }
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_at_awkward_word_lengths() {
        let payload: Vec<u8> = (0..=255u8).collect();
        for word_len in [1, 7, 8, 16, 120, 2048] {
            let p = Packetizer::new(word_len);
            let words = p.packetize(&payload);
            assert_eq!(words.len(), p.words_for(payload.len()));
            assert_eq!(p.depacketize(&words, payload.len()), payload, "{word_len}");
        }
    }

    #[test]
    fn empty_stream_is_zero_words() {
        let p = Packetizer::new(16);
        assert!(p.packetize(&[]).is_empty());
        assert_eq!(p.depacketize(&[], 0), Vec::<u8>::new());
    }

    #[test]
    fn padding_bits_are_zero() {
        let p = Packetizer::new(120);
        let words = p.packetize(&[0xFF; 16]); // 128 bits → 2 words
        assert_eq!(words.len(), 2);
        assert_eq!(words[1].count_ones(), 8); // 8 real bits, 112 padding
    }
}
