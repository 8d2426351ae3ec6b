//! Versioned, signed policy bundles.
//!
//! The paper's §IV: "should the security requirements of the device change
//! after production … the OEM can distribute a policy definition update."
//! A [`PolicyBundle`] is the update artefact — a version number plus the
//! policies it carries — and a [`SignedBundle`] is its wire form: a
//! canonical text payload (a small header plus the policies in canonical
//! DSL form, which round-trips by construction) plus an HMAC-SHA-256 tag
//! under the OEM key.
//!
//! A received bundle is checked in a fixed order, and each step runs only
//! if every earlier one passed:
//!
//! 1. **tag** — the signature must be exactly 64 hex digits, decoded on
//!    the stack, and equal the payload's HMAC ([`PolicyError::BadSignature`]);
//! 2. **header** — magic, version and rationale lines
//!    ([`PolicyError::MalformedBundle`]);
//! 3. **version** — only [`DevicePolicyStore::apply`] asks this: a version
//!    that does not advance the store's is rejected here
//!    ([`PolicyError::StaleVersion`]), before any policy is parsed;
//! 4. **body** — the policies ([`PolicyError::MalformedBundle`]).
//!
//! [`SignedBundle::verify`] runs steps 1, 2 and 4 and returns the whole
//! bundle.
//!
//! [`DevicePolicyStore::apply`]: crate::update::DevicePolicyStore::apply

use crate::dsl::{parse_policies, print_policy};
use crate::error::PolicyError;
use crate::policy::Policy;
use crate::sign::{digests_equal, from_hex, hmac_sha256, to_hex, DIGEST_LEN};
use std::fmt;

/// Magic first line of the canonical payload.
const BUNDLE_MAGIC: &str = "polsec-bundle/1";

fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// An unsigned policy update bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyBundle {
    /// Monotonically increasing bundle version.
    pub version: u64,
    /// Free-text description of why the update was issued (the discovered
    /// threat, the advisory id, …).
    pub rationale: String,
    /// The policies the device should enforce after applying the bundle.
    pub policies: Vec<Policy>,
}

impl PolicyBundle {
    /// Creates a bundle.
    pub fn new(version: u64, rationale: impl Into<String>, policies: Vec<Policy>) -> Self {
        PolicyBundle {
            version,
            rationale: rationale.into(),
            policies,
        }
    }

    /// Serialises to the canonical payload bytes that get signed: a
    /// header (magic, version, escaped rationale) followed by every policy
    /// printed in canonical DSL form. The DSL printer is deterministic and
    /// `parse(print(p)) == p` is property-tested, which is all
    /// canonicalisation needs.
    pub fn payload(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(BUNDLE_MAGIC);
        out.push('\n');
        out.push_str(&format!("version {}\n", self.version));
        out.push_str(&format!("rationale {}\n", escape_line(&self.rationale)));
        for p in &self.policies {
            out.push('\n');
            out.push_str(&print_policy(p));
        }
        out.into_bytes()
    }

    /// Parses canonical payload bytes back into a bundle.
    ///
    /// # Errors
    /// [`PolicyError::MalformedBundle`] when the header or any policy does
    /// not parse.
    pub fn from_payload(payload: &[u8]) -> Result<Self, PolicyError> {
        Header::parse(payload)?.into_bundle()
    }

    /// Signs the bundle under `key`, producing the wire artefact.
    pub fn sign(&self, key: &[u8]) -> SignedBundle {
        let payload = self.payload();
        let tag = hmac_sha256(key, &payload);
        SignedBundle {
            payload,
            signature_hex: to_hex(&tag),
        }
    }

    /// Total number of rules across all carried policies.
    pub fn rule_count(&self) -> usize {
        self.policies.iter().map(|p| p.len()).sum()
    }
}

impl fmt::Display for PolicyBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bundle v{} ({} policies, {} rules): {}",
            self.version,
            self.policies.len(),
            self.rule_count(),
            self.rationale
        )
    }
}

/// A payload's three header lines, read without touching the policies
/// after them: what a device needs to decide whether the body is worth
/// parsing.
pub(crate) struct Header<'a> {
    /// The bundle version.
    pub(crate) version: u64,
    /// The rationale as the payload writes it: escaped.
    rationale: &'a str,
    /// The policies, unparsed.
    body: &'a [u8],
}

fn malformed(detail: &str) -> PolicyError {
    PolicyError::MalformedBundle { detail: detail.into() }
}

fn utf8(bytes: &[u8]) -> Result<&str, PolicyError> {
    std::str::from_utf8(bytes).map_err(|_| malformed("payload is not utf-8"))
}

impl<'a> Header<'a> {
    /// Reads the header lines, ended by '\n' as [`PolicyBundle::payload`]
    /// writes them; the body is the rest.
    ///
    /// # Errors
    /// [`PolicyError::MalformedBundle`] when a header line is missing, not
    /// utf-8 or not of its form.
    pub(crate) fn parse(payload: &'a [u8]) -> Result<Self, PolicyError> {
        let mut lines = payload.splitn(4, |&b| b == b'\n');
        let mut line = || lines.next().map(utf8).transpose();
        if line()? != Some(BUNDLE_MAGIC) {
            return Err(malformed("missing bundle magic"));
        }
        let version = line()?
            .and_then(|l| l.strip_prefix("version "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or_else(|| malformed("missing or invalid version line"))?;
        let rationale = line()?
            .and_then(|l| l.strip_prefix("rationale "))
            .ok_or_else(|| malformed("missing rationale line"))?;
        let body = lines.next().unwrap_or_default();
        Ok(Header { version, rationale, body })
    }

    /// The rationale, unescaped.
    pub(crate) fn rationale(&self) -> String {
        unescape_line(self.rationale)
    }

    /// Parses the body: the policies in place, so a '\r' inside a quoted
    /// name survives byte for byte.
    ///
    /// # Errors
    /// [`PolicyError::MalformedBundle`] when the body is not utf-8 or a
    /// policy does not parse.
    pub(crate) fn policies(&self) -> Result<Vec<Policy>, PolicyError> {
        let body = utf8(self.body)?;
        if body.trim().is_empty() {
            return Ok(Vec::new());
        }
        parse_policies(body).map_err(|e| PolicyError::MalformedBundle {
            detail: e.to_string(),
        })
    }

    fn into_bundle(self) -> Result<PolicyBundle, PolicyError> {
        Ok(PolicyBundle {
            version: self.version,
            policies: self.policies()?,
            rationale: self.rationale(),
        })
    }
}

/// A signed bundle as distributed to devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedBundle {
    payload: Vec<u8>,
    signature_hex: String,
}

impl SignedBundle {
    /// The raw payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The signature in hex.
    pub fn signature_hex(&self) -> &str {
        &self.signature_hex
    }

    /// Verifies the signature under `key` and deserialises the bundle:
    /// tag, then header, then body (see the [module docs](self)).
    ///
    /// # Errors
    /// * [`PolicyError::BadSignature`] — tag mismatch or a tag that is not
    ///   64 hex digits;
    /// * [`PolicyError::MalformedBundle`] — payload not a valid bundle.
    pub fn verify(&self, key: &[u8]) -> Result<PolicyBundle, PolicyError> {
        self.authentic_header(key)?.into_bundle()
    }

    /// Checks the tag under `key`, then reads the header; the body stays
    /// unparsed.
    ///
    /// # Errors
    /// [`PolicyError::BadSignature`] or, for a header that does not parse,
    /// [`PolicyError::MalformedBundle`].
    pub(crate) fn authentic_header(&self, key: &[u8]) -> Result<Header<'_>, PolicyError> {
        let given =
            from_hex::<DIGEST_LEN>(&self.signature_hex).ok_or(PolicyError::BadSignature)?;
        if !digests_equal(&hmac_sha256(key, &self.payload), &given) {
            return Err(PolicyError::BadSignature);
        }
        Header::parse(&self.payload)
    }

    /// Builds a signed bundle from raw parts (e.g. received bytes) without
    /// verification — call [`SignedBundle::verify`] before trusting it.
    pub fn from_parts(payload: Vec<u8>, signature_hex: String) -> Self {
        SignedBundle {
            payload,
            signature_hex,
        }
    }

    /// A tampered copy with one payload byte flipped — test helper for the
    /// tamper-rejection experiments.
    pub fn tampered(&self) -> SignedBundle {
        let mut payload = self.payload.clone();
        if let Some(b) = payload.last_mut() {
            *b ^= 0x01;
        }
        SignedBundle {
            payload,
            signature_hex: self.signature_hex.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, ActionSet};
    use crate::entity::EntityMatcher;
    use crate::policy::{Effect, Rule};

    const KEY: &[u8] = b"oem-signing-key";

    fn bundle(version: u64) -> PolicyBundle {
        let p = Policy::new("ecu", version)
            .add_rule(Rule::new(
                "r1",
                Effect::Deny,
                ActionSet::only(Action::Write),
                EntityMatcher::anything(),
                EntityMatcher::anything(),
            ))
            .unwrap();
        PolicyBundle::new(version, "CVE-2018-XXXX response", vec![p])
    }

    #[test]
    fn sign_verify_round_trip() {
        let b = bundle(3);
        let signed = b.sign(KEY);
        let back = signed.verify(KEY).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.rule_count(), 1);
    }

    #[test]
    fn sign_verify_keeps_a_policy_name_byte_exact() {
        let names = ["x\r\ny", "a\"b", "back\\slash \\\"", "trailing\r", "\r\n"];
        let policies: Vec<Policy> = names.iter().map(|n| Policy::new(*n, 1)).collect();
        let b = PolicyBundle::new(2, "crlf\r\nin a name", policies);
        let back = b.sign(KEY).verify(KEY).unwrap();
        assert_eq!(back, b);
        let got: Vec<&str> = back.policies.iter().map(Policy::name).collect();
        assert_eq!(got, names);
    }

    #[test]
    fn wrong_key_rejected() {
        let signed = bundle(1).sign(KEY);
        assert_eq!(signed.verify(b"not-the-key").unwrap_err(), PolicyError::BadSignature);
    }

    #[test]
    fn tampered_payload_rejected() {
        let signed = bundle(1).sign(KEY);
        assert_eq!(signed.tampered().verify(KEY).unwrap_err(), PolicyError::BadSignature);
    }

    #[test]
    fn garbage_signature_rejected() {
        let signed = bundle(1).sign(KEY);
        let bad = SignedBundle::from_parts(signed.payload().to_vec(), "zznothex".into());
        assert_eq!(bad.verify(KEY).unwrap_err(), PolicyError::BadSignature);
    }

    #[test]
    fn non_hex_signatures_rejected_without_panicking() {
        let signed = bundle(1).sign(KEY);
        // 'é' is two bytes, so byte-indexed pairs would split it
        let split = SignedBundle::from_parts(signed.payload().to_vec(), "a\u{e9}a".into());
        assert_eq!(split.verify(KEY).unwrap_err(), PolicyError::BadSignature);
        // "+x" is not hex, although an integer parser reads it as 0x0x
        let hex = signed.signature_hex();
        let at = (0..hex.len())
            .step_by(2)
            .find(|&i| hex.as_bytes()[i] == b'0')
            .expect("the signature has a 0x pair");
        let mut plus = hex.to_string();
        plus.replace_range(at..=at, "+");
        let plus = SignedBundle::from_parts(signed.payload().to_vec(), plus);
        assert_eq!(plus.verify(KEY).unwrap_err(), PolicyError::BadSignature);
    }

    #[test]
    fn malformed_payload_with_valid_tag_rejected_as_bundle() {
        // sign arbitrary junk so the signature verifies but decoding fails
        let junk = b"{\"not\": \"a bundle\"}".to_vec();
        let tag = to_hex(&hmac_sha256(KEY, &junk));
        let s = SignedBundle::from_parts(junk, tag);
        assert!(matches!(
            s.verify(KEY).unwrap_err(),
            PolicyError::MalformedBundle { .. }
        ));
    }

    #[test]
    fn payload_is_deterministic() {
        assert_eq!(bundle(2).payload(), bundle(2).payload());
        assert_ne!(bundle(2).payload(), bundle(3).payload());
    }

    #[test]
    fn display_summarises() {
        let text = bundle(7).to_string();
        assert!(text.contains("bundle v7"));
        assert!(text.contains("1 policies, 1 rules"));
        assert!(text.contains("CVE-2018-XXXX"));
    }
}
