//! Inputs depend on the seed and nothing else.

use wallbench::workloads::Kind;

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for kind in Kind::ALL {
        for quick in [true, false] {
            let digest = |seed| kind.input_digest(seed, quick, 2);
            let first = digest(11);
            assert_eq!(first, digest(11), "{} quick={quick}", kind.name());
            assert_ne!(first, digest(12), "{} quick={quick}", kind.name());
        }
    }
}
