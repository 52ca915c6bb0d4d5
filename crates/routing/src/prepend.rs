//! AS-path prepending detection (§6.2.2).
//!
//! A network that prepends its AS repeatedly on an announcement is asking
//! for that route to be deprioritized (ingress traffic engineering,
//! commonly because the path is capacity constrained). Table 2 of the
//! paper reports how much apparent routing opportunity sits on prepended
//! alternates — opportunity that should *not* be harvested.

use crate::types::AsPath;

/// Length of the path with consecutive duplicates collapsed.
fn stripped_len(path: &AsPath) -> usize {
    let mut n = 0;
    let mut prev = None;
    for &asn in &path.0 {
        if Some(asn) != prev {
            n += 1;
            prev = Some(asn);
        }
    }
    n
}

/// Number of prepended hops (announced length minus stripped length).
fn prepend_count(path: &AsPath) -> usize {
    path.len() - stripped_len(path)
}

/// Is `a` prepended more than `b`?
pub fn prepended_more(a: &AsPath, b: &AsPath) -> bool {
    prepend_count(a) > prepend_count(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Asn;

    fn path(asns: &[u32]) -> AsPath {
        AsPath(asns.iter().map(|&a| Asn(a)).collect())
    }

    #[test]
    fn clean_path_is_not_prepended() {
        let p = path(&[64500, 3356, 7018]);
        assert_eq!(stripped_len(&p), 3);
        assert_eq!(prepend_count(&p), 0);
    }

    #[test]
    fn detects_origin_prepending() {
        let p = path(&[64500, 7018, 7018, 7018]);
        assert_eq!(stripped_len(&p), 2);
        assert_eq!(prepend_count(&p), 2);
    }

    #[test]
    fn detects_midpath_prepending() {
        let p = path(&[64500, 3356, 3356, 7018]);
        assert_eq!(prepend_count(&p), 1);
    }

    #[test]
    fn same_asn_nonadjacent_is_not_prepending() {
        // AS loops don't happen in valid BGP, but the stripper must only
        // collapse *consecutive* repeats.
        let p = path(&[64500, 3356, 64500]);
        assert_eq!(prepend_count(&p), 0);
    }

    #[test]
    fn prepended_more_comparison() {
        let a = path(&[64500, 7018, 7018, 7018]);
        let b = path(&[64500, 3356, 3356]);
        assert!(prepended_more(&a, &b));
        assert!(!prepended_more(&b, &a));
        assert!(!prepended_more(&b, &b));
    }

    #[test]
    fn empty_path() {
        let p = path(&[]);
        assert_eq!(stripped_len(&p), 0);
        assert_eq!(prepend_count(&p), 0);
    }
}
