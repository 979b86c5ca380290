//! Inflates the first bytes of a gzip member, and no more.
//!
//! Decoding a whole ML2 job costs the generator several milliseconds, more
//! than the server spends building and encoding it, so under load the
//! generator reads only the start of each `/online/` body: enough to see
//! the `uid` the job is for. This is a plain RFC 1951 decoder (stored,
//! fixed and dynamic blocks) that stops once it has produced the bytes
//! asked for. It depends on no encoder detail: any valid gzip member works.

/// Bits of a DEFLATE stream, least significant bit first.
struct Bits<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Bits<'_> {
    fn bit(&mut self) -> Result<u32, String> {
        let byte = self
            .data
            .get(self.pos >> 3)
            .ok_or("deflate stream ends early")?;
        let bit = u32::from(byte >> (self.pos & 7)) & 1;
        self.pos += 1;
        Ok(bit)
    }

    fn bits(&mut self, count: u32) -> Result<u32, String> {
        let mut value = 0;
        for i in 0..count {
            value |= self.bit()? << i;
        }
        Ok(value)
    }
}

/// A canonical Huffman code: how many codes of each length, and the
/// symbols ordered by (length, symbol).
struct Huffman {
    counts: [u16; 16],
    symbols: Vec<u16>,
}

impl Huffman {
    fn new(lengths: &[u8]) -> Self {
        let mut counts = [0u16; 16];
        for &len in lengths {
            counts[usize::from(len)] += 1;
        }
        counts[0] = 0;
        let mut symbols = Vec::with_capacity(lengths.len());
        for len in 1..16u8 {
            symbols.extend(
                (0u16..)
                    .zip(lengths)
                    .filter(|&(_, &l)| l == len)
                    .map(|(symbol, _)| symbol),
            );
        }
        Self { counts, symbols }
    }

    fn decode(&self, bits: &mut Bits<'_>) -> Result<u16, String> {
        // Canonical codes of one length are consecutive: walk the lengths,
        // one bit at a time, until the code falls inside a length's range.
        let (mut code, mut first, mut index) = (0i32, 0i32, 0i32);
        for &count in &self.counts[1..] {
            code |= bits.bit()? as i32;
            let count = i32::from(count);
            if code - first < count {
                return Ok(self.symbols[(index + code - first) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err("invalid Huffman code".to_owned())
    }
}

const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
/// The order in which a dynamic block lists its code-length code lengths.
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// The first `want` bytes a DEFLATE stream inflates to (fewer if the
/// stream is shorter).
///
/// # Errors
///
/// Describes the first malformed or missing part of the stream before
/// `want` bytes were produced.
pub fn inflate_prefix(stream: &[u8], want: usize) -> Result<Vec<u8>, String> {
    let mut bits = Bits {
        data: stream,
        pos: 0,
    };
    let mut out = Vec::with_capacity(want);
    while out.len() < want {
        let last = bits.bit()? == 1;
        match bits.bits(2)? {
            0 => stored(&mut bits, &mut out, want)?,
            1 => {
                let mut lengths = [8u8; 288];
                lengths[144..256].fill(9);
                lengths[256..280].fill(7);
                let (lit, dist) = (Huffman::new(&lengths), Huffman::new(&[5; 30]));
                codes(&mut bits, &mut out, want, &lit, &dist)?;
            }
            2 => {
                let (lit, dist) = dynamic_codes(&mut bits)?;
                codes(&mut bits, &mut out, want, &lit, &dist)?;
            }
            _ => return Err("reserved deflate block type".to_owned()),
        }
        if last {
            break;
        }
    }
    out.truncate(want);
    Ok(out)
}

fn stored(bits: &mut Bits<'_>, out: &mut Vec<u8>, want: usize) -> Result<(), String> {
    bits.pos = bits.pos.div_ceil(8) * 8;
    let len = bits.bits(16)?;
    if bits.bits(16)? != !len & 0xffff {
        return Err("stored block length does not match its complement".to_owned());
    }
    let start = bits.pos >> 3;
    let take = (len as usize).min(want.saturating_sub(out.len()));
    let data = bits
        .data
        .get(start..start + take)
        .ok_or("deflate stream ends early")?;
    out.extend_from_slice(data);
    bits.pos += 8 * len as usize;
    Ok(())
}

fn dynamic_codes(bits: &mut Bits<'_>) -> Result<(Huffman, Huffman), String> {
    let lit_count = bits.bits(5)? as usize + 257;
    let dist_count = bits.bits(5)? as usize + 1;
    let clen_count = bits.bits(4)? as usize + 4;
    let mut clen = [0u8; 19];
    for &slot in &CLEN_ORDER[..clen_count] {
        clen[slot] = bits.bits(3)? as u8;
    }
    let clen = Huffman::new(&clen);
    let mut lengths = Vec::with_capacity(lit_count + dist_count);
    while lengths.len() < lit_count + dist_count {
        let (value, repeat) = match clen.decode(bits)? {
            symbol @ 0..=15 => (symbol as u8, 1),
            16 => {
                let previous = *lengths
                    .last()
                    .ok_or("length repeat with no previous length")?;
                (previous, 3 + bits.bits(2)?)
            }
            17 => (0, 3 + bits.bits(3)?),
            _ => (0, 11 + bits.bits(7)?),
        };
        lengths.extend(std::iter::repeat_n(value, repeat as usize));
    }
    if lengths.len() != lit_count + dist_count {
        return Err("code lengths overrun their tables".to_owned());
    }
    Ok((
        Huffman::new(&lengths[..lit_count]),
        Huffman::new(&lengths[lit_count..]),
    ))
}

fn codes(
    bits: &mut Bits<'_>,
    out: &mut Vec<u8>,
    want: usize,
    lit: &Huffman,
    dist: &Huffman,
) -> Result<(), String> {
    while out.len() < want {
        let symbol = usize::from(lit.decode(bits)?);
        match symbol {
            0..=255 => out.push(symbol as u8),
            256 => return Ok(()),
            _ => {
                let code = symbol - 257;
                let (&base, &extra) = LENGTH_BASE
                    .get(code)
                    .zip(LENGTH_EXTRA.get(code))
                    .ok_or("invalid length code")?;
                let len = usize::from(base) + bits.bits(u32::from(extra))? as usize;
                let code = usize::from(dist.decode(bits)?);
                let (&base, &extra) = DIST_BASE
                    .get(code)
                    .zip(DIST_EXTRA.get(code))
                    .ok_or("invalid distance code")?;
                let back = usize::from(base) + bits.bits(u32::from(extra))? as usize;
                if back > out.len() {
                    return Err("distance reaches before the stream's start".to_owned());
                }
                for _ in 0..len {
                    out.push(out[out.len() - back]);
                }
            }
        }
    }
    Ok(())
}

/// The first `want` bytes a gzip member inflates to.
///
/// # Errors
///
/// Describes a malformed header or DEFLATE stream.
pub fn gzip_prefix(member: &[u8], want: usize) -> Result<Vec<u8>, String> {
    if member.len() < 18 || member[..3] != [0x1f, 0x8b, 0x08] {
        return Err("not a gzip member".to_owned());
    }
    let flags = member[3];
    let mut offset = 10;
    if flags & 0x04 != 0 {
        let extra = member
            .get(offset..offset + 2)
            .ok_or("truncated gzip header")?;
        offset += 2 + usize::from(u16::from_le_bytes([extra[0], extra[1]]));
    }
    // Zero-terminated name and comment.
    for flag in [0x08u8, 0x10] {
        if flags & flag != 0 {
            let end = member
                .get(offset..)
                .and_then(|rest| rest.iter().position(|&b| b == 0))
                .ok_or("truncated gzip header")?;
            offset += end + 1;
        }
    }
    if flags & 0x02 != 0 {
        offset += 2;
    }
    let stream = member
        .get(offset..member.len() - 8)
        .ok_or("truncated gzip header")?;
    inflate_prefix(stream, want)
}
