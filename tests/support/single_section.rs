//! An independent codec for single-section checkpoint files, written
//! from the format description in `vnet_mc::checkpoint`. It shares only
//! the key delta codec with the crate's reader and writer. Tests take a
//! valid file apart with [`parse`], damage its structure, and rebuild it
//! with [`seal`], which restamps every checksum so only the structural
//! damage remains.

use vnet::mc::codec;

/// FNV-1a 64-bit, the checkpoint checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap_or_default())
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap_or_default())
}

/// A single-section checkpoint taken apart into its editable parts.
pub struct Single {
    /// Magic, version and fingerprint.
    pub head: Vec<u8>,
    /// `level` and `nodes_spent`.
    pub counters: Vec<u8>,
    /// The section's label table, verbatim.
    pub labels: Vec<u8>,
    /// `(key, [parent shard, parent index, label id, level])`.
    pub entries: Vec<(Vec<u8>, [u64; 4])>,
    /// `(shard, entry index)` of each next-frontier state.
    pub frontier: Vec<(u32, u32)>,
}

/// Key deltas restart from an empty reference every 16 entries.
fn delta_ref(entries: &[(Vec<u8>, [u64; 4])], i: usize) -> &[u8] {
    if i.is_multiple_of(16) {
        &[]
    } else {
        &entries[i - 1].0
    }
}

/// Splits valid single-section checkpoint bytes into their parts.
pub fn parse(bytes: &[u8]) -> Single {
    let payload = &bytes[28..bytes.len() - 8];
    assert_eq!(u32_at(payload, 16), 1, "expected a single-section checkpoint");
    let sec_len = u64_at(payload, 20) as usize;
    let sec = &payload[36..36 + sec_len];
    let mut pos = 4;
    for _ in 0..u32_at(sec, 0) {
        pos += 4 + u32_at(sec, pos) as usize;
    }
    let labels = sec[..pos].to_vec();
    let count = u64_at(sec, pos) as usize;
    pos += 8;
    let mut entries: Vec<(Vec<u8>, [u64; 4])> = Vec::with_capacity(count);
    for i in 0..count {
        let mut key = Vec::new();
        let decoded = codec::decode_delta(delta_ref(&entries, i), sec, &mut pos, &mut key);
        assert!(decoded.is_some(), "entry {i}: bad key delta");
        let mut fields = [0u64; 4];
        for f in &mut fields {
            *f = codec::read_varint(sec, &mut pos).unwrap_or(u64::MAX);
        }
        entries.push((key, fields));
    }
    let rest = &payload[36 + sec_len..];
    let frontier = (0..u64_at(rest, 0) as usize)
        .map(|i| (u32_at(rest, 8 + 8 * i), u32_at(rest, 12 + 8 * i)))
        .collect();
    Single {
        head: bytes[..20].to_vec(),
        counters: payload[..16].to_vec(),
        labels,
        entries,
        frontier,
    }
}

/// Rebuilds checkpoint bytes from parts, restamping every checksum.
pub fn seal(s: &Single) -> Vec<u8> {
    let mut sec = s.labels.clone();
    sec.extend((s.entries.len() as u64).to_le_bytes());
    for (i, (key, fields)) in s.entries.iter().enumerate() {
        codec::encode_delta(delta_ref(&s.entries, i), key, &mut sec);
        for &f in fields {
            codec::put_varint(&mut sec, f);
        }
    }
    let mut payload = s.counters.clone();
    payload.extend(1u32.to_le_bytes());
    payload.extend((sec.len() as u64).to_le_bytes());
    payload.extend(fnv1a(&sec).to_le_bytes());
    payload.extend(&sec);
    payload.extend((s.frontier.len() as u64).to_le_bytes());
    for (shard, idx) in &s.frontier {
        payload.extend(shard.to_le_bytes());
        payload.extend(idx.to_le_bytes());
    }
    let mut out = s.head.clone();
    out.extend((payload.len() as u64).to_le_bytes());
    out.extend(payload);
    let sum = fnv1a(&out);
    out.extend(sum.to_le_bytes());
    out
}
