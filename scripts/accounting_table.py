"""Print parameter and FLOP accounting for the built-in templates.

Usage: python scripts/accounting_table.py [template ...]

Shows both counting conventions (multiply-accumulate as one FLOP, or as
two) so accounting can be compared against differently normalized tables.
"""
import sys

from prunekit import archspec


def describe(name: str) -> None:
    template = archspec.get_template(name)
    params = archspec.param_count(template)
    flops_mac = archspec.flops_count(template)
    flops_2x = 2 * flops_mac
    widths = tuple(template.original_structure())
    print(f"{name}")
    print(f"  prunable widths : {widths}")
    print(f"  parameters      : {params:>14,}  ({params / 1e6:.2f}M)")
    print(f"  FLOPs (MAC=1)   : {flops_mac:>14,}  ({flops_mac / 1e6:.2f}M)")
    print(f"  FLOPs (MAC=2)   : {flops_2x:>14,}  ({flops_2x / 1e6:.2f}M)")


def main() -> int:
    names = sys.argv[1:] or sorted(archspec.BUILTIN_TEMPLATES)
    for name in names:
        describe(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
