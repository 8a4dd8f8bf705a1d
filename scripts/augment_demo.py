"""Show the round-trip paraphrase pipeline on a few paragraphs.

Runs the built-in rule-based mock translators (no network), prints each
original context next to its paraphrased copies, and shows where the
answer string landed after realignment.

Usage: python scripts/augment_demo.py [--k 5] [--seed 0]
"""
import argparse

from qanet.augmentation import RuleTranslator, augment_examples
from qanet.config import AugmentationConfig
from qanet.data import example_from_raw

PARAGRAPHS = [
    ("demo0",
     "The big house on the hill was famous for its red roof. "
     "A quick walk from the city center, it hosted the local team "
     "every summer.",
     "What color was the roof?", "red"),
    ("demo1",
     "Construction will start in March. The new stadium can show "
     "over forty thousand fans a single match.",
     "When will construction start?", "March"),
    ("demo2",
     "All of the departments in the College of Science offer PhD "
     "programs, except for the Department of Pre-Professional Studies.",
     "Which department does not offer a PhD program?",
     "Department of Pre-Professional Studies"),
]


def main():
    settings = AugmentationConfig()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=settings.k)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    examples = [example_from_raw(eid, ctx, q, ans, ctx.index(ans))
                for eid, ctx, q, ans in PARAGRAPHS]
    endpoints = {"fr": RuleTranslator("fr"), "de": RuleTranslator("de")}
    produced = augment_examples(examples, endpoints, k=args.k,
                                threshold=settings.threshold, seed=args.seed,
                                copies=settings.copies)

    for ex in examples:
        print(f"== {ex.id}")
        print(f"   original : {ex.context_text}")
        print(f"   answer   : {ex.answer_text!r}")
        for tag, pool in sorted(produced.items()):
            for new in pool:
                if not new.id.startswith(f"{ex.id}-"):
                    continue
                lo, hi = new.answer_char_range()
                print(f"   {new.id:<10}: {new.context_text}")
                print(f"   {'':<10}  answer={new.answer_text!r} "
                      f"chars=[{lo}:{hi}]")
    total = sum(len(pool) for pool in produced.values())
    print(f"-- {total} paraphrased examples from {len(examples)} originals")


if __name__ == "__main__":
    main()
