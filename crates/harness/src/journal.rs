//! The JSONL checkpoint journal behind every resumable run: the plan
//! runner's ([`crate::checkpoint`]) and the serve fleet's (`dpm-serve`).
//!
//! A journal is one header line, then one compact JSON record per line.
//! [`Journal::append`] writes each record with one `write_all` and
//! flushes before it returns, so a kill leaves at most the last line
//! torn. [`read`] tolerates exactly that: a last line that fails to parse
//! is dropped, as a record that was never durable. Any other line that
//! fails to parse — a blank interior line included, since no writer emits
//! one — is corruption, because silently dropping an interior record
//! would break bit-identical resume.
//!
//! What a record means and whether it is valid belong to the caller's
//! codec; this module never looks inside one. A resumed run rewrites its
//! journal from the records it carries forward, and [`contiguous_runs`]
//! groups those into maximal runs of consecutive indices, so a codec can
//! write one range record per run: a long resume chain then costs one
//! write per gap, not one per record.

use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use crate::json::Json;
use crate::HarnessError;

/// An open journal being appended to, possibly from several threads.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Creates (truncating) the journal at `path`, creating its parent
    /// directory if needed, and writes and flushes `header`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures as [`HarnessError::Io`].
    pub fn create(path: impl AsRef<Path>, header: &Json) -> Result<Journal, HarnessError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let journal = Journal {
            file: Mutex::new(File::create(path)?),
        };
        journal.append(header)?;
        Ok(journal)
    }

    /// Appends `record` as one line and flushes, so the record survives a
    /// kill immediately after.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures as [`HarnessError::Io`].
    pub fn append(&self, record: &Json) -> Result<(), HarnessError> {
        let mut line = record.render_compact();
        line.push('\n');
        // No write panics while holding the lock, so a poisoned lock
        // still guards a consistent file.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())?;
        file.flush()?;
        Ok(())
    }
}

/// A journal as read back: the header and every durable record.
#[derive(Debug, Clone, PartialEq)]
pub struct Contents {
    /// The first line.
    pub header: Json,
    /// `(line number, record)` for every later line, numbered from 1 for
    /// the header, with a torn last line left out.
    pub records: Vec<(usize, Json)>,
}

/// Reads the journal at `path`.
///
/// A file that parses whole as one JSON document — a header-only
/// journal, or a pretty-printed document such as a run artifact — reads
/// as that header with no records.
///
/// # Errors
///
/// Returns [`HarnessError::Checkpoint`] for an empty file, a header that
/// does not parse, or a line other than the last that does not parse, and
/// propagates filesystem failures as [`HarnessError::Io`].
pub fn read(path: impl AsRef<Path>) -> Result<Contents, HarnessError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("reading {}: {e}", path.display())))?;
    if let Ok(header) = Json::parse(&text) {
        return Ok(Contents {
            header,
            records: Vec::new(),
        });
    }
    let reject = |reason: String| HarnessError::Checkpoint { reason };
    let mut lines = text.lines();
    let Some(header_line) = lines.next() else {
        return Err(reject("journal is empty".to_owned()));
    };
    let header =
        Json::parse(header_line).map_err(|e| reject(format!("malformed journal header: {e}")))?;
    let lines: Vec<&str> = lines.collect();
    let mut records = Vec::with_capacity(lines.len());
    for (index, line) in lines.iter().enumerate() {
        let line_number = index + 2;
        match Json::parse(line) {
            Ok(record) => records.push((line_number, record)),
            Err(_) if index + 1 == lines.len() => {}
            Err(e) => return Err(reject(format!("line {line_number}: {e}"))),
        }
    }
    Ok(Contents { header, records })
}

/// Splits index-ordered `(index, item)` pairs into maximal runs of
/// consecutive indices, each returned as `(first index, items)`.
pub fn contiguous_runs<T>(items: impl IntoIterator<Item = (usize, T)>) -> Vec<(usize, Vec<T>)> {
    let mut runs: Vec<(usize, Vec<T>)> = Vec::new();
    for (index, item) in items {
        match runs.last_mut() {
            Some((start, run)) if *start + run.len() == index => run.push(item),
            _ => runs.push((index, vec![item])),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dpm-harness-journal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn record(n: i64) -> Json {
        let mut doc = Json::object();
        doc.set("n", n);
        doc
    }

    #[test]
    fn appended_records_read_back_numbered_by_line() {
        let path = temp_path("round-trip").join("nested.jsonl");
        let journal = Journal::create(&path, &record(0)).unwrap();
        journal.append(&record(1)).unwrap();
        journal.append(&record(2)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"n\":0}\n{\"n\":1}\n{\"n\":2}\n"
        );
        let contents = read(&path).unwrap();
        assert_eq!(contents.header, record(0));
        assert_eq!(contents.records, vec![(2, record(1)), (3, record(2))]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn only_a_torn_last_line_is_dropped() {
        let path = temp_path("torn");
        for (text, kept) in [
            ("{\"n\":0}\n{\"n\":1}\n{\"n\"", 1),
            ("{\"n\":0}\n{\"n\":1}\n", 1),
            ("{\"n\":0}\n{\"n\":1}", 1),
            ("{\"n\":0}\n{\"n\":1}\n\n", 1),
            ("{\"n\":0}\n", 0),
        ] {
            std::fs::write(&path, text).unwrap();
            assert_eq!(read(&path).unwrap().records.len(), kept, "{text:?}");
        }
        for text in [
            "",
            "{\"n\"\n{\"n\":1}\n",
            "{\"n\":0}\n{\"n\n{\"n\":1}\n",
            "{\"n\":0}\n\n{\"n\":1}\n",
        ] {
            std::fs::write(&path, text).unwrap();
            let err = read(&path).unwrap_err();
            assert!(matches!(err, HarnessError::Checkpoint { .. }), "{text:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_single_document_reads_as_a_header_without_records() {
        let path = temp_path("document");
        std::fs::write(&path, "{\n  \"tasks\": [\n    1\n  ]\n}\n").unwrap();
        let contents = read(&path).unwrap();
        assert_eq!(
            contents.header.get("tasks"),
            Some(&Json::Array(vec![Json::Int(1)]))
        );
        assert!(contents.records.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn contiguous_runs_split_at_every_gap() {
        let items = [(0, 'a'), (1, 'b'), (3, 'c'), (4, 'd'), (5, 'e'), (9, 'f')];
        assert_eq!(
            contiguous_runs(items),
            vec![
                (0, vec!['a', 'b']),
                (3, vec!['c', 'd', 'e']),
                (9, vec!['f'])
            ]
        );
        assert!(contiguous_runs(Vec::<(usize, ())>::new()).is_empty());
    }
}
