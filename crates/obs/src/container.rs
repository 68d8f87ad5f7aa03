//! The section-table container `.cpsnap` snapshots and `.cpsflight`
//! dumps share.
//!
//! ```text
//! magic     6 bytes (one per format)
//! version   u16 LE
//! count     u32 LE
//! id        u64 LE   the format's checksum over the serialized table
//! table     count × { id:u16, offset:u64, len:u64, checksum:u64 }
//! payload   sections at their absolute offsets, each 8-byte aligned
//! ```
//!
//! A format supplies its magic, version, checksum function and section
//! names as a [`Format`]. The container writes the header and table
//! ([`Format::assemble`]), computes a file's id from each section's
//! length and checksum alone ([`Format::id_of`]), splits a file in
//! *O(header)*
//! ([`Format::split`]), verifies the payload checksums
//! ([`Table::verify`], or [`Table::verify_on`] several threads) and looks sections up ([`Table::find`]). The id
//! fingerprints the whole content, since each table entry embeds its
//! payload's checksum, and doubles as the table's own integrity check.
//! Each format converts [`ContainerError`] into its own error type, so
//! its messages keep their wording.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Bytes before the section table: magic, version, count, id.
pub const HEADER_LEN: usize = 6 + 2 + 4 + 8;

/// Bytes per section-table entry: id + offset + len + checksum.
pub const TABLE_ENTRY_LEN: usize = 2 + 8 + 8 + 8;

/// Why a container could not be read. Every variant maps one to one onto
/// the owning format's error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The bytes end before the header, the table or a section does.
    Truncated,
    /// The file does not start with the format's magic.
    BadMagic,
    /// The format version is not the one this build reads.
    UnsupportedVersion(u16),
    /// A stored checksum does not match; names the section, or
    /// `section table` for the id.
    ChecksumMismatch(&'static str),
    /// A table entry is invalid (unknown id, misaligned offset) or a
    /// section is missing.
    Corrupt(String),
}

/// What one file format supplies to the container.
#[derive(Debug)]
pub struct Format {
    /// The six bytes every file of the format starts with.
    pub magic: [u8; 6],
    /// The one version this build writes and reads.
    pub version: u16,
    /// Checksum over each payload and over the table (the id).
    pub checksum: fn(&[u8]) -> u64,
    /// `(id, name)` of every section, in the order files are written.
    pub sections: &'static [(u16, &'static str)],
}

/// One section-table entry whose span lies inside the file. Its payload
/// checksum is verified only by [`Table::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (the format's name for its id).
    pub name: &'static str,
    /// Absolute byte offset of the payload (8-byte aligned).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Stored checksum of the payload, by the format's checksum function.
    pub checksum: u64,
}

/// A split file: the id and the sections in table order.
#[derive(Debug)]
pub struct Table<'a> {
    format: &'static Format,
    bytes: &'a [u8],
    /// The file's id: the checksum over its section table.
    pub id: u64,
    pub sections: Vec<SectionInfo>,
}

/// Checks a file's magic and version and returns the bytes after them.
///
/// # Errors
///
/// [`ContainerError::Truncated`], [`ContainerError::BadMagic`] or
/// [`ContainerError::UnsupportedVersion`].
pub fn prologue<'a>(
    bytes: &'a [u8],
    magic: &[u8; 6],
    version: u16,
) -> Result<&'a [u8], ContainerError> {
    if bytes.len() < magic.len() {
        return Err(ContainerError::Truncated);
    }
    if bytes[..magic.len()] != magic[..] {
        return Err(ContainerError::BadMagic);
    }
    let mut r = Reader::new(&bytes[magic.len()..]);
    let found = r.u16()?;
    if found != version {
        return Err(ContainerError::UnsupportedVersion(found));
    }
    Ok(&bytes[magic.len() + 2..])
}

impl Format {
    fn name(&self, id: u16) -> Option<&'static str> {
        self.sections.iter().find(|s| s.0 == id).map(|s| s.1)
    }

    /// Writes the section table of a file whose payloads, in
    /// [`Format::sections`] order, have the given `(len, checksum)`s, and
    /// returns it with each payload's offset and the file's length.
    fn table(&self, sections: &[(usize, u64)]) -> (Vec<u8>, Vec<usize>, usize) {
        assert_eq!(
            sections.len(),
            self.sections.len(),
            "one payload per section"
        );
        let mut table = Vec::with_capacity(sections.len() * TABLE_ENTRY_LEN);
        let mut offsets = Vec::with_capacity(sections.len());
        let mut offset = (HEADER_LEN + sections.len() * TABLE_ENTRY_LEN).next_multiple_of(8);
        for (&(id, _), &(len, checksum)) in self.sections.iter().zip(sections) {
            put_u16(&mut table, id);
            put_u64(&mut table, offset as u64);
            put_u64(&mut table, len as u64);
            put_u64(&mut table, checksum);
            offsets.push(offset);
            offset = (offset + len).next_multiple_of(8);
        }
        (table, offsets, offset)
    }

    /// The id of the file whose payloads, in [`Format::sections`] order,
    /// have the given `(len, checksum)`s: the checksum of its section
    /// table, which needs nothing else of a payload. Equal to the id
    /// [`Format::assemble`] writes for payloads of those lengths and
    /// checksums.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one pair per section.
    #[must_use]
    pub fn id_of(&self, sections: &[(usize, u64)]) -> u64 {
        (self.checksum)(&self.table(sections).0)
    }

    /// Lays out one payload per section, in [`Format::sections`] order,
    /// behind the header and table, zero-padding each to an 8-byte
    /// boundary.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one payload per section.
    #[must_use]
    pub fn assemble(&self, payloads: &[&[u8]]) -> Vec<u8> {
        let sections: Vec<(usize, u64)> = payloads
            .iter()
            .map(|payload| (payload.len(), (self.checksum)(payload)))
            .collect();
        let (table, offsets, len) = self.table(&sections);
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&self.magic);
        put_u16(&mut out, self.version);
        put_u32(&mut out, u32::try_from(payloads.len()).expect("fits u32"));
        put_u64(&mut out, (self.checksum)(&table));
        out.extend_from_slice(&table);
        for (payload, offset) in payloads.iter().zip(offsets) {
            out.resize(offset, 0);
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses the header and section table in *O(header)*: magic,
    /// version, the id check over the table bytes, then each entry's id,
    /// alignment and span. Payload checksums are not verified.
    ///
    /// # Errors
    ///
    /// Every [`ContainerError`] variant.
    pub fn split<'a>(&'static self, bytes: &'a [u8]) -> Result<Table<'a>, ContainerError> {
        let mut r = Reader::new(prologue(bytes, &self.magic, self.version)?);
        let count = r.u32()? as usize;
        let id = r.u64()?;
        let table = r.take(count * TABLE_ENTRY_LEN)?;
        if (self.checksum)(table) != id {
            return Err(ContainerError::ChecksumMismatch("section table"));
        }
        let mut r = Reader::new(table);
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let (id, offset, len, checksum) = (r.u16()?, r.u64()?, r.u64()?, r.u64()?);
            let name = self.name(id).ok_or_else(|| {
                ContainerError::Corrupt(format!("unknown section id {id} in the section table"))
            })?;
            if offset % 8 != 0 {
                return Err(ContainerError::Corrupt(format!(
                    "`{name}` section offset {offset} is not 8-byte aligned"
                )));
            }
            if offset
                .checked_add(len)
                .map_or(true, |end| end > bytes.len() as u64)
            {
                return Err(ContainerError::Truncated);
            }
            sections.push(SectionInfo {
                name,
                offset,
                len,
                checksum,
            });
        }
        Ok(Table {
            format: self,
            bytes,
            id,
            sections,
        })
    }
}

impl<'a> Table<'a> {
    /// The payload of one of this table's entries; [`Format::split`]
    /// checked that its span lies inside the file.
    fn span(&self, section: &SectionInfo) -> &'a [u8] {
        &self.bytes[section.offset as usize..(section.offset + section.len) as usize]
    }

    /// Verifies every payload checksum, in table order.
    ///
    /// # Errors
    ///
    /// [`ContainerError::ChecksumMismatch`] naming the first bad section.
    pub fn verify(&self) -> Result<(), ContainerError> {
        let checksum = self.format.checksum;
        match self
            .sections
            .iter()
            .find(|s| checksum(self.span(s)) != s.checksum)
        {
            Some(bad) => Err(ContainerError::ChecksumMismatch(bad.name)),
            None => Ok(()),
        }
    }

    /// [`Table::verify`] with the checksums computed on up to `threads`
    /// threads, this one and scoped ones, each taking the largest section
    /// not yet taken; `threads <= 1` spawns nothing. Every checksum is
    /// computed before any is compared, so the error is `verify`'s: the
    /// first bad section in table order.
    ///
    /// # Errors
    ///
    /// As [`Table::verify`].
    pub fn verify_on(&self, threads: usize) -> Result<(), ContainerError> {
        let workers = threads.min(self.sections.len());
        if workers <= 1 {
            return self.verify();
        }
        let mut largest_first: Vec<usize> = (0..self.sections.len()).collect();
        largest_first.sort_by_key(|&i| std::cmp::Reverse(self.sections[i].len));
        // Relaxed throughout: `next` only hands out indices, and the
        // scope's join orders every checksum store before the loads below.
        let next = AtomicUsize::new(0);
        let sums: Vec<AtomicU64> = self.sections.iter().map(|_| AtomicU64::new(0)).collect();
        let work = || {
            while let Some(&i) = largest_first.get(next.fetch_add(1, Ordering::Relaxed)) {
                let sum = (self.format.checksum)(self.span(&self.sections[i]));
                sums[i].store(sum, Ordering::Relaxed);
            }
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(work);
            }
            work();
        });
        match self
            .sections
            .iter()
            .zip(&sums)
            .find(|(s, sum)| sum.load(Ordering::Relaxed) != s.checksum)
        {
            Some((bad, _)) => Err(ContainerError::ChecksumMismatch(bad.name)),
            None => Ok(()),
        }
    }

    /// The first entry of section `id`.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Corrupt`] when the table has no such section.
    pub fn find(&self, id: u16) -> Result<&SectionInfo, ContainerError> {
        let name = self.format.name(id).unwrap_or("?");
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| ContainerError::Corrupt(format!("missing `{name}` section")))
    }

    /// The payload of the first section `id`.
    ///
    /// # Errors
    ///
    /// As [`Table::find`].
    pub fn payload(&self, id: u16) -> Result<&'a [u8], ContainerError> {
        self.find(id).map(|section| self.span(section))
    }
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader: running out of bytes is
/// [`ContainerError::Truncated`], never a panic.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        let out = self.bytes[self.pos..]
            .get(..n)
            .ok_or(ContainerError::Truncated)?;
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ContainerError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    pub(crate) fn u16(&mut self) -> Result<u16, ContainerError> {
        self.array().map(u16::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ContainerError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ContainerError> {
        self.array().map(u64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static FORMAT: Format = Format {
        magic: *b"TESTFM",
        version: 1,
        checksum: |bytes| {
            bytes.iter().fold(7, |h: u64, &b| {
                h.wrapping_mul(31).wrapping_add(u64::from(b))
            })
        },
        sections: &[(1, "one"), (2, "two")],
    };

    #[test]
    fn id_of_is_the_id_assemble_writes() {
        for payloads in [[&b""[..], b""], [b"abc", b"0123456789"]] {
            let file = FORMAT.assemble(&payloads);
            let table = FORMAT.split(&file).expect("assembled file splits");
            table.verify().expect("checksums hold");
            let sections = payloads.map(|p| (p.len(), (FORMAT.checksum)(p)));
            assert_eq!(FORMAT.id_of(&sections), table.id);
        }
    }

    #[test]
    fn verify_on_any_thread_count_reports_what_verify_reports() {
        let file = FORMAT.assemble(&[b"abc", b"0123456789"]);
        let offsets: Vec<usize> = FORMAT
            .split(&file)
            .unwrap()
            .sections
            .iter()
            .map(|s| s.offset as usize)
            .collect();
        // Intact, the second section bad, then both bad: the first bad
        // section in table order is reported, whichever finishes first.
        for bad in [&[][..], &[1], &[0, 1]] {
            let mut file = file.clone();
            for &section in bad {
                file[offsets[section]] ^= 0xFF;
            }
            let table = FORMAT.split(&file).unwrap();
            let expected = table.verify();
            assert_eq!(expected.is_ok(), bad.is_empty());
            for threads in 0..=3 {
                assert_eq!(table.verify_on(threads), expected, "{bad:?} on {threads}");
            }
        }
    }
}
