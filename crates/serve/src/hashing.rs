//! Content addressing for the serve caches.
//!
//! The module cache is keyed by *what the compiler would see*, not by the
//! request text: PsimC sources that differ only in comments or whitespace
//! canonicalize to the same token stream and therefore share one compiled
//! module (and, transitively, one set of execution plans). The compile
//! *configuration* — SPMD mode, verification mode, fault-injection
//! descriptor — is folded into the key because it changes the compiled
//! output.
//!
//! Hashing is FNV-1a 64, the same construction the rest of the workspace
//! uses for deterministic seeds. Collisions are theoretically possible but
//! irrelevant in practice for a cache whose worst failure mode would
//! surface instantly in the byte-identity gates (`servebench --check`
//! compares every served response against an uncached single-shot run).

/// FNV-1a 64-bit over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonicalizes a PsimC source for content addressing: strips `//`
/// line comments (PsimC has no string literals, so the scan is textual)
/// and collapses every whitespace run to a single space. Token boundaries
/// are preserved — `a + b` and `a  +  b` canonicalize identically, while
/// `a+b` stays distinct (it already lexes the same, but the cache does not
/// need to know that).
pub fn canonicalize(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for line in src.lines() {
        let code = match line.find("//") {
            Some(i) => &line[..i],
            None => line,
        };
        for tok in code.split_whitespace() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(tok);
        }
    }
    out
}

/// Content hash of a canonicalized source.
pub fn source_hash(src: &str) -> u64 {
    fnv1a(canonicalize(src).as_bytes())
}

/// Full module-cache key: source content hash combined with every
/// compile-time knob that changes the compiled output, plus the execution
/// engine and costing target. The returned key doubles as the `module_id`
/// for the shared [`psir::PlanCache`] — (key, function) uniquely
/// identifies a `FramePlan`.
///
/// The engine and target are part of the key even though the compiled
/// module depends on neither: keeping per-engine and per-target
/// entries disjoint means a selection bug can never silently serve a
/// request from the wrong engine's warm path (a cached response carries
/// target-priced cycles), and the per-engine hit/miss counters stay
/// honest.
pub fn request_key(
    source: &str,
    mode: &str,
    verify: &str,
    inject: &str,
    engine: &str,
    target: &str,
) -> u64 {
    let mut h = source_hash(source);
    for part in [mode, verify, inject, engine, target] {
        // Chain with a separator so ("ab","c") and ("a","bc") differ.
        h = fnv1a(format!("{h:016x}\x1f{part}").as_bytes());
    }
    h
}

/// Batch-coalescing key: the module-cache key extended with everything
/// two concurrent requests must share to be admitted into one batch —
/// the entry function (one plan per function), the gang configuration
/// `n`, and the request-side budget triple. Module key first: requests
/// in one batch share a compiled module, its plans, and one interpreter
/// arena by construction. Budgets are *compatible*, not merely present:
/// each member still gets its own [`RunBudget`](crate::RunBudget) and
/// token at execution time, the key only guarantees the members agree on
/// what those budgets are.
pub fn batch_key(
    module_key: u64,
    entry: &str,
    n: u64,
    deadline_ms: u64,
    max_steps: u64,
    max_mem_bytes: u64,
) -> u64 {
    let mut h = module_key;
    for part in [
        entry.to_string(),
        n.to_string(),
        deadline_ms.to_string(),
        max_steps.to_string(),
        max_mem_bytes.to_string(),
    ] {
        h = fnv1a(format!("{h:016x}\x1f{part}").as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_whitespace_do_not_change_the_hash() {
        let a = "void f(i64 n) {\n  psim gang(8) threads(n) { }\n}\n";
        let b = "// header comment\nvoid f(i64 n)   {\n\tpsim gang(8)\n  threads(n) { } // tail\n}";
        assert_eq!(source_hash(a), source_hash(b));
        assert_eq!(canonicalize(a), canonicalize(b));
    }

    #[test]
    fn token_changes_change_the_hash() {
        assert_ne!(source_hash("a + b"), source_hash("a - b"));
        // Collapsing whitespace must not merge tokens.
        assert_ne!(canonicalize("a b"), canonicalize("ab"));
    }

    #[test]
    fn config_is_part_of_the_key() {
        let src = "void f() { }";
        let avx512 = "x86-avx512";
        let base = request_key(src, "parsimony", "fallback", "", "fast", avx512);
        assert_ne!(
            base,
            request_key(src, "gangsync", "fallback", "", "fast", avx512)
        );
        assert_ne!(
            base,
            request_key(src, "parsimony", "strict", "", "fast", avx512)
        );
        assert_ne!(
            base,
            request_key(src, "parsimony", "fallback", "shape:1", "fast", avx512)
        );
        assert_ne!(
            base,
            request_key(src, "parsimony", "fallback", "", "reference", avx512)
        );
        // Targets keep disjoint warm paths: cached cycles are priced per
        // machine, and different SVE vector lengths price differently too.
        assert_ne!(
            base,
            request_key(src, "parsimony", "fallback", "", "fast", "sve-vla:512")
        );
        assert_ne!(
            request_key(src, "parsimony", "fallback", "", "fast", "sve-vla:512"),
            request_key(src, "parsimony", "fallback", "", "fast", "sve-vla:256")
        );
        assert_eq!(
            base,
            request_key(src, "parsimony", "fallback", "", "fast", avx512)
        );
    }

    #[test]
    fn key_parts_are_separated() {
        let src = "void f() { }";
        assert_ne!(
            request_key(src, "ab", "c", "", "fast", "x86-avx512"),
            request_key(src, "a", "bc", "", "fast", "x86-avx512")
        );
    }

    #[test]
    fn batch_key_separates_entry_gang_and_budgets() {
        let m = request_key(
            "void f() { }",
            "parsimony",
            "fallback",
            "",
            "fast",
            "x86-avx512",
        );
        let base = batch_key(m, "main", 1024, 0, 0, 0);
        assert_eq!(base, batch_key(m, "main", 1024, 0, 0, 0));
        assert_ne!(base, batch_key(m, "other", 1024, 0, 0, 0));
        assert_ne!(base, batch_key(m, "main", 2048, 0, 0, 0));
        assert_ne!(base, batch_key(m, "main", 1024, 50, 0, 0));
        assert_ne!(base, batch_key(m, "main", 1024, 0, 1000, 0));
        assert_ne!(base, batch_key(m, "main", 1024, 0, 0, 4096));
        assert_ne!(base, batch_key(m.wrapping_add(1), "main", 1024, 0, 0, 0));
    }
}
