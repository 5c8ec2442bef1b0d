//! The on-page representation of a directory.
//!
//! A directory is an ordinary file of the file service whose pages hold a
//! serialized `name → (capability, rights mask)` table:
//!
//! * the **root page** carries a fixed header — magic, format, a monotonically
//!   increasing *generation* bumped by every mutation, the entry count and the
//!   number of entry chunks — and nothing else, so every directory mutation
//!   reads and rewrites the root page and any two concurrent mutations of the
//!   same directory are a read/write conflict the file service's OCC
//!   validation catches;
//! * the **chunk pages** (children `[0] .. [chunk_count)` of the root) hold
//!   the entries themselves, sorted by name and packed greedily up to
//!   [`CHUNK_BUDGET`] bytes per chunk, so a small directory is one page and a
//!   large one stays within the 32 KiB page bound of §5.
//!
//! The codec is deliberately boring: length-prefixed names, one kind byte, one
//! rights byte, and the standard capability wire form.  Everything else —
//! durability, replication, conflict detection — is inherited from the file
//! service underneath.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use amoeba_capability::{Capability, DirCap, Rights, WIRE_SIZE};

use crate::error::{DirError, Result};

/// Magic number at the start of every directory root page (`"ADIR"`).
pub const DIR_MAGIC: u32 = 0x4144_4952;

/// Format version of the directory table codec.
pub const DIR_FORMAT: u16 = 1;

/// Upper bound on the bytes of one entry chunk page; half the 32 KiB page
/// bound, leaving generous headroom for the longest single entry.
pub const CHUNK_BUDGET: usize = 16 * 1024;

/// Longest legal entry name, in bytes.
pub const MAX_NAME_LEN: usize = 255;

/// What a directory entry names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// An ordinary file.
    File,
    /// Another directory (whose capability may be wrapped in a
    /// [`DirCap`]).
    Directory,
}

impl EntryKind {
    /// On-page encoding of the kind.
    fn to_u8(self) -> u8 {
        match self {
            EntryKind::File => 0,
            EntryKind::Directory => 1,
        }
    }

    /// Decodes a kind byte.
    fn from_u8(v: u8) -> Option<EntryKind> {
        match v {
            0 => Some(EntryKind::File),
            1 => Some(EntryKind::Directory),
            _ => None,
        }
    }
}

/// One directory entry: a name bound to a capability, a rights grant mask and
/// a kind tag.
///
/// The capability is stored exactly as the linker presented it; `mask` records
/// the rights the entry *grants* (`mask ⊆ cap.rights`, enforced at link time).
/// A lookup demanding rights outside the mask is refused, so an entry can hand
/// out less authority than the stored capability carries — attenuation at the
/// naming layer — but never more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// The entry's name within its directory.
    pub name: String,
    /// The capability the name is bound to.
    pub cap: Capability,
    /// The rights this entry grants; at most `cap.rights`.
    pub mask: Rights,
    /// Whether the capability names a file or a directory.
    pub kind: EntryKind,
}

impl DirEntry {
    /// The rights a holder of this entry may actually exercise: the stored
    /// capability's rights attenuated by the grant mask.
    pub fn granted(&self) -> Rights {
        self.cap.rights.attenuate(self.mask)
    }

    /// Interprets the entry as a directory capability, when it is one.
    pub fn as_dir(&self) -> Option<DirCap> {
        match self.kind {
            EntryKind::Directory => Some(DirCap::new(self.cap)),
            EntryKind::File => None,
        }
    }
}

/// Checks that `name` is a legal entry name.
pub fn validate_name(name: &str) -> Result<()> {
    if name.is_empty()
        || name.len() > MAX_NAME_LEN
        || name.contains('/')
        || name == "."
        || name == ".."
    {
        return Err(DirError::InvalidName(name.to_string()));
    }
    Ok(())
}

/// The fixed header stored in a directory's root page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirHeader {
    /// Mutation counter: bumped by every committed directory mutation, so a
    /// cached table can be generation-checked.
    pub generation: u64,
    /// Number of entries in the table.
    pub entry_count: u32,
    /// Number of entry chunk pages below the root.
    pub chunk_count: u32,
}

impl DirHeader {
    /// The header of a freshly created, empty directory.
    pub fn empty() -> Self {
        DirHeader {
            generation: 0,
            entry_count: 0,
            chunk_count: 0,
        }
    }

    /// Serialises the header into root-page data.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(22);
        buf.put_u32_le(DIR_MAGIC);
        buf.put_u16_le(DIR_FORMAT);
        buf.put_u64_le(self.generation);
        buf.put_u32_le(self.entry_count);
        buf.put_u32_le(self.chunk_count);
        buf.freeze()
    }

    /// Deserialises a root page.  Fails when the page does not look like a
    /// directory (e.g. a plain file was linked with kind *directory*).
    pub fn decode(mut data: Bytes) -> Result<DirHeader> {
        if data.remaining() < 22 {
            return Err(DirError::Corrupt("root page too short".into()));
        }
        if data.get_u32_le() != DIR_MAGIC {
            return Err(DirError::Corrupt("bad directory magic".into()));
        }
        let format = data.get_u16_le();
        if format != DIR_FORMAT {
            return Err(DirError::Corrupt(format!(
                "unknown directory format {format}"
            )));
        }
        Ok(DirHeader {
            generation: data.get_u64_le(),
            entry_count: data.get_u32_le(),
            chunk_count: data.get_u32_le(),
        })
    }
}

fn encode_entry(buf: &mut BytesMut, entry: &DirEntry) {
    buf.put_u16_le(entry.name.len() as u16);
    buf.put_slice(entry.name.as_bytes());
    buf.put_u8(entry.kind.to_u8());
    buf.put_u8(entry.mask.bits());
    entry.cap.encode(buf);
}

fn encoded_entry_len(entry: &DirEntry) -> usize {
    2 + entry.name.len() + 2 + WIRE_SIZE
}

fn decode_entry(buf: &mut Bytes) -> Result<DirEntry> {
    let corrupt = || DirError::Corrupt("truncated directory entry".into());
    if buf.remaining() < 2 {
        return Err(corrupt());
    }
    let name_len = buf.get_u16_le() as usize;
    if buf.remaining() < name_len + 2 + WIRE_SIZE {
        return Err(corrupt());
    }
    let name = String::from_utf8(buf.slice(..name_len).to_vec())
        .map_err(|_| DirError::Corrupt("entry name is not UTF-8".into()))?;
    buf.advance(name_len);
    let kind = EntryKind::from_u8(buf.get_u8())
        .ok_or_else(|| DirError::Corrupt("unknown entry kind".into()))?;
    let mask = Rights::from_bits(buf.get_u8());
    let cap = Capability::decode(buf).ok_or_else(corrupt)?;
    Ok(DirEntry {
        name,
        cap,
        mask,
        kind,
    })
}

/// The in-memory form of a directory table: entries sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirTable {
    entries: BTreeMap<String, DirEntry>,
}

impl DirTable {
    /// An empty table.
    pub fn new() -> Self {
        DirTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&DirEntry> {
        self.entries.get(name)
    }

    /// Inserts an entry, replacing any previous binding of the name.
    pub fn insert(&mut self, entry: DirEntry) -> Option<DirEntry> {
        self.entries.insert(entry.name.clone(), entry)
    }

    /// Removes an entry by name.
    pub fn remove(&mut self, name: &str) -> Option<DirEntry> {
        self.entries.remove(name)
    }

    /// All entries, sorted by name.
    pub fn entries(&self) -> impl Iterator<Item = &DirEntry> {
        self.entries.values()
    }

    /// Serialises the table into chunk pages: entries in name order, packed
    /// greedily up to [`CHUNK_BUDGET`] bytes per chunk (always at least one
    /// entry per chunk).  An empty table encodes to no chunks.
    pub fn encode_chunks(&self) -> Vec<Bytes> {
        let mut chunks = Vec::new();
        let mut buf = BytesMut::new();
        for entry in self.entries.values() {
            if !buf.is_empty() && buf.len() + encoded_entry_len(entry) > CHUNK_BUDGET {
                chunks.push(std::mem::take(&mut buf).freeze());
            }
            encode_entry(&mut buf, entry);
        }
        if !buf.is_empty() {
            chunks.push(buf.freeze());
        }
        chunks
    }

    /// Deserialises a table from its chunk pages.
    pub fn decode_chunks(chunks: &[Bytes]) -> Result<DirTable> {
        let mut table = DirTable::new();
        for chunk in chunks {
            let mut buf = chunk.clone();
            while buf.has_remaining() {
                let entry = decode_entry(&mut buf)?;
                table.insert(entry);
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_capability::Port;

    fn cap(object: u64, rights: Rights) -> Capability {
        Capability {
            port: Port::from_raw(0xd0c),
            object,
            rights,
            check: object.wrapping_mul(0x9e37),
        }
    }

    fn entry(name: &str, object: u64, kind: EntryKind) -> DirEntry {
        DirEntry {
            name: name.to_string(),
            cap: cap(object, Rights::ALL),
            mask: Rights::READ | Rights::WRITE,
            kind,
        }
    }

    #[test]
    fn header_round_trips_and_rejects_garbage() {
        let header = DirHeader {
            generation: 42,
            entry_count: 7,
            chunk_count: 2,
        };
        assert_eq!(DirHeader::decode(header.encode()).unwrap(), header);
        assert!(matches!(
            DirHeader::decode(Bytes::from_static(b"not a dir page at all")),
            Err(DirError::Corrupt(_))
        ));
        assert!(matches!(
            DirHeader::decode(Bytes::new()),
            Err(DirError::Corrupt(_))
        ));
    }

    #[test]
    fn table_round_trips_sorted() {
        let mut table = DirTable::new();
        for (name, object) in [("zeta", 3), ("alpha", 1), ("mid", 2)] {
            table.insert(entry(name, object, EntryKind::File));
        }
        table.insert(entry("subdir", 9, EntryKind::Directory));
        let chunks = table.encode_chunks();
        assert_eq!(chunks.len(), 1);
        let decoded = DirTable::decode_chunks(&chunks).unwrap();
        assert_eq!(decoded, table);
        let names: Vec<&str> = decoded.entries().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "subdir", "zeta"]);
    }

    #[test]
    fn large_tables_split_into_budgeted_chunks() {
        let mut table = DirTable::new();
        for i in 0..600 {
            table.insert(DirEntry {
                name: format!("{:0>60}", i),
                cap: cap(i as u64, Rights::ALL),
                mask: Rights::READ,
                kind: EntryKind::File,
            });
        }
        let chunks = table.encode_chunks();
        assert!(chunks.len() > 1, "600 wide entries must span chunks");
        assert!(chunks.iter().all(|c| c.len() <= CHUNK_BUDGET));
        assert_eq!(DirTable::decode_chunks(&chunks).unwrap(), table);
    }

    #[test]
    fn truncated_chunks_are_corrupt() {
        let mut table = DirTable::new();
        table.insert(entry("victim", 1, EntryKind::File));
        let chunk = table.encode_chunks().remove(0);
        let truncated = chunk.slice(..chunk.len() - 3);
        assert!(matches!(
            DirTable::decode_chunks(&[truncated]),
            Err(DirError::Corrupt(_))
        ));
    }

    #[test]
    fn entry_grant_is_the_attenuated_rights() {
        let e = DirEntry {
            name: "f".into(),
            cap: cap(1, Rights::READ | Rights::WRITE | Rights::COMMIT),
            mask: Rights::READ | Rights::DESTROY,
            kind: EntryKind::File,
        };
        assert_eq!(e.granted(), Rights::READ);
        assert!(e.as_dir().is_none());
        let d = DirEntry {
            kind: EntryKind::Directory,
            ..e
        };
        assert_eq!(*d.as_dir().unwrap().cap(), d.cap);
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("report.txt").is_ok());
        for bad in ["", ".", "..", "a/b"] {
            assert!(matches!(validate_name(bad), Err(DirError::InvalidName(_))));
        }
        assert!(validate_name(&"x".repeat(256)).is_err());
        assert!(validate_name(&"x".repeat(255)).is_ok());
    }

    #[test]
    fn kind_bytes_round_trip() {
        assert_eq!(
            EntryKind::from_u8(EntryKind::File.to_u8()),
            Some(EntryKind::File)
        );
        assert_eq!(
            EntryKind::from_u8(EntryKind::Directory.to_u8()),
            Some(EntryKind::Directory)
        );
        assert_eq!(EntryKind::from_u8(7), None);
    }
}
