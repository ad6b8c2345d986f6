//! Self-checksummed JSON records: the on-disk convention shared by the
//! memtable manifest and the store manifest.
//!
//! A record is one pretty-printed JSON object whose last field, `crc`, is
//! the CRC-32C of the pretty text of the object *without* that field. It is
//! published with [`ndss_durable::write_atomic`], so a crash mid-save leaves
//! the previous record and outside corruption is detected on load rather
//! than acted on. The types that use it keep only their field mapping and
//! invariants.

use std::path::Path;

use ndss_json::Json;

use crate::IndexError;

/// Appends `crc` to the object `payload` and atomically publishes it at
/// `path` (temp file, fsync, rename, directory sync).
pub(crate) fn save(path: &Path, payload: Json) -> Result<(), IndexError> {
    let crc = crc32c::crc32c(payload.to_string_pretty().as_bytes());
    let Json::Object(mut fields) = payload else {
        unreachable!("a record serializes to an object");
    };
    fields.push(("crc".to_string(), Json::UInt(crc as u64)));
    ndss_durable::write_atomic(path, Json::Object(fields).to_string_pretty().as_bytes())?;
    Ok(())
}

/// Reads the record at `path` and returns its verified document. `Ok(None)`
/// when the file is absent; bad JSON, a missing `crc` or a CRC mismatch is
/// [`IndexError::Malformed`].
pub(crate) fn load(path: &Path) -> Result<Option<Json>, IndexError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let malformed = |what: &str| IndexError::Malformed(format!("{}: {what}", path.display()));
    let doc = Json::parse(&text).map_err(|e| malformed(&e.to_string()))?;
    let stored_crc = doc
        .get("crc")
        .and_then(Json::as_u64)
        .ok_or_else(|| malformed("missing crc"))?;
    // The CRC covers the serialization of every field but `crc`;
    // re-serialize the parsed fields (order-preserving) and compare.
    let Json::Object(fields) = &doc else {
        return Err(malformed("not an object"));
    };
    let sans_crc = Json::Object(fields.iter().filter(|(k, _)| k != "crc").cloned().collect());
    let computed = crc32c::crc32c(sans_crc.to_string_pretty().as_bytes());
    if computed as u64 != stored_crc {
        return Err(malformed(&format!(
            "crc mismatch (stored {stored_crc:#x}, computed {computed:#x})"
        )));
    }
    Ok(Some(doc))
}
