"""Architecture templates, pruned-variant instantiation, and parameter/FLOP accounting.

A template is an ordered list of layer definitions plus the indices of the
convolutions whose output widths are search variables. Instantiating a
channel-count vector rebuilds the whole chain, so input channel counts and
spatial sizes always stay consistent with the requested widths.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from pathlib import Path

from .errors import BoundsError, StructureError
from .util import canonical_json, read_yaml, sha256_hex

KIND_CONV = "conv"
KIND_FC = "fc"
KIND_POOL = "pool"
KIND_ACT = "activation"
KIND_BN = "batchnorm"
KIND_HEAD = "classifier-head"

# the settings each kind of layer takes, in config-dict order; a pool's padding
# must be 0 (see LayerDef) but stays listed, so template hashes keep their bytes
_FIELDS = {
    KIND_CONV: ("out_channels", "kernel", "stride", "padding", "bias"),
    KIND_FC: ("out_channels", "bias"),
    KIND_POOL: ("kernel", "stride", "padding"),
    KIND_ACT: (),
    KIND_BN: (),
    KIND_HEAD: ("bias",),
}


@dataclass(frozen=True)
class LayerDef:
    """Hyperparameters of one layer, before channel chaining."""

    kind: str
    out_channels: int | None = None
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    bias: bool = True

    def __post_init__(self):
        if self.kind not in _FIELDS:
            raise StructureError(f"unknown layer kind {self.kind!r}")
        if self.kind in (KIND_CONV, KIND_FC) and (
            self.out_channels is None or self.out_channels < 1
        ):
            raise StructureError(f"{self.kind} layer needs out_channels >= 1")
        if self.kernel < 1 or self.stride < 1 or self.padding < 0:
            raise StructureError("kernel/stride must be >= 1 and padding >= 0")
        if self.kind == KIND_POOL and self.padding:
            # MaxPool pads nothing, so a padded pool's sizes would be wrong
            raise StructureError(f"a pool layer takes no padding other than 0, got {self.padding}")


@dataclass(frozen=True)
class LayerSpec:
    """A fully resolved layer: channels chained and spatial sizes computed.

    ``out_spatial`` is (W, H). For fc layers ``in_channels`` is the flattened
    feature count of the incoming map.
    """

    kind: str
    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: int
    padding: int
    out_spatial: tuple[int, int]
    bias: bool = True


def check_widths(widths, bounds, where: str = "structure") -> None:
    """Raise unless ``widths`` holds one integer (not a bool) per entry of
    ``bounds``, each within [1, bound]; the error starts with ``where``."""
    if len(widths) != len(bounds):
        raise StructureError(
            f"{where} holds {len(widths)} widths, expected {len(bounds)} "
            "(one per prunable slot)")
    for slot, (width, bound) in enumerate(zip(widths, bounds)):
        if isinstance(width, bool) or not isinstance(width, Integral) \
                or not 1 <= width <= bound:
            raise BoundsError(f"{where}: width {width} of slot {slot} is outside [1, {bound}]")


@dataclass(frozen=True)
class ArchTemplate:
    name: str
    defs: tuple[LayerDef, ...]
    layers: tuple[LayerSpec, ...]
    prunable_slots: tuple[int, ...]
    input_shape: tuple[int, int, int]  # (C, W, H)
    num_classes: int

    def original_structure(self) -> tuple[int, ...]:
        return tuple(self.layers[i].out_channels for i in self.prunable_slots)

    def check_widths(self, widths, where: str = "structure") -> None:
        """``check_widths`` against this template's original widths."""
        check_widths(widths, self.original_structure(), where)

    def to_config_dict(self) -> dict:
        return {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "num_classes": self.num_classes,
            "prunable_slots": list(self.prunable_slots),
            "layers": [{"kind": d.kind, **{k: getattr(d, k) for k in _FIELDS[d.kind]}}
                       for d in self.defs],
        }

    def template_hash(self) -> str:
        # Name excluded: the hash identifies the concrete structure only.
        d = self.to_config_dict()
        d.pop("name")
        return sha256_hex(canonical_json(d))


def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def assemble(
    name: str,
    input_shape: tuple[int, int, int],
    num_classes: int,
    defs,
    prunable_slots=None,
) -> ArchTemplate:
    """Resolve a layer definition list into a validated template.

    Channel counts chain automatically; spatial sizes are recomputed from
    kernel/stride/padding at every layer.
    """
    defs = tuple(defs)
    c, w, h = (int(v) for v in input_shape)
    if c < 1 or w < 1 or h < 1:
        raise StructureError(f"invalid input shape {input_shape}")
    if num_classes < 2:
        raise StructureError("num_classes must be >= 2")

    layers: list[LayerSpec] = []
    flattened = False
    for idx, d in enumerate(defs):
        if d.kind in (KIND_CONV, KIND_POOL):
            if flattened:
                raise StructureError(f"layer {idx}: {d.kind} after flatten")
            ow = _conv_out_size(w, d.kernel, d.stride, d.padding)
            oh = _conv_out_size(h, d.kernel, d.stride, d.padding)
            if ow < 1 or oh < 1:
                raise StructureError(f"layer {idx}: {d.kind} output spatial {ow}x{oh}")
            out = d.out_channels if d.kind == KIND_CONV else c
            layers.append(LayerSpec(d.kind, c, out, (d.kernel, d.kernel), d.stride, d.padding,
                                    (ow, oh), d.bias))
            c, w, h = out, ow, oh
        elif d.kind in (KIND_ACT, KIND_BN):
            spatial = (1, 1) if flattened else (w, h)
            layers.append(LayerSpec(d.kind, c, c, (1, 1), 1, 0, spatial))
        else:  # fc or classifier-head
            out = num_classes if d.kind == KIND_HEAD else d.out_channels
            in_features = c if flattened else c * w * h
            layers.append(
                LayerSpec(d.kind, in_features, out, (1, 1), 1, 0, (1, 1), d.bias)
            )
            c, w, h = out, 1, 1
            flattened = True

    conv_slots = tuple(i for i, d in enumerate(defs) if d.kind == KIND_CONV)
    if prunable_slots is None:
        prunable_slots = conv_slots
    else:
        prunable_slots = tuple(int(i) for i in prunable_slots)
        for s in prunable_slots:
            if s not in conv_slots:
                raise StructureError(f"prunable slot {s} is not a conv layer")
    return ArchTemplate(
        name=name,
        defs=defs,
        layers=tuple(layers),
        prunable_slots=prunable_slots,
        input_shape=(int(input_shape[0]), int(input_shape[1]), int(input_shape[2])),
        num_classes=int(num_classes),
    )


def instantiate(template: ArchTemplate, structure) -> ArchTemplate:
    """Concrete template with conv widths replaced by ``structure``.

    In-channel counts of downstream layers and all spatial sizes are
    recomputed. Raises (see ``ArchTemplate.check_widths``) unless every
    width is an integer within its slot's bounds.
    """
    widths = tuple(structure)
    template.check_widths(widths)
    new_defs = list(template.defs)
    for layer_idx, width in zip(template.prunable_slots, widths):
        new_defs[layer_idx] = replace(new_defs[layer_idx], out_channels=int(width))
    return assemble(template.name, template.input_shape, template.num_classes, new_defs,
                    template.prunable_slots)


def _resolved(template: ArchTemplate, structure) -> ArchTemplate:
    if structure is None:
        return template
    return instantiate(template, structure)


def param_count(template: ArchTemplate, structure=None) -> int:
    """Total learnable parameters: conv/fc weights and biases plus batchnorm
    scale and shift. Running statistics, pooling and activations count zero."""
    inst = _resolved(template, structure)
    total = 0
    for layer in inst.layers:
        if layer.kind == KIND_CONV:
            kh, kw = layer.kernel
            total += layer.out_channels * layer.in_channels * kh * kw
            if layer.bias:
                total += layer.out_channels
        elif layer.kind in (KIND_FC, KIND_HEAD):
            total += layer.in_channels * layer.out_channels
            if layer.bias:
                total += layer.out_channels
        elif layer.kind == KIND_BN:
            total += 2 * layer.out_channels
    return total


def flops_count(template: ArchTemplate, structure=None) -> int:
    """Forward-pass FLOPs, one per multiply-accumulate; conv and fc layers
    are the only contributors."""
    inst = _resolved(template, structure)
    total = 0
    for layer in inst.layers:
        if layer.kind == KIND_CONV:
            kh, kw = layer.kernel
            ow, oh = layer.out_spatial
            total += layer.out_channels * layer.in_channels * kh * kw * ow * oh
        elif layer.kind in (KIND_FC, KIND_HEAD):
            total += layer.in_channels * layer.out_channels
    return total


def drop_percent(original: float, pruned: float) -> float:
    """100 * (1 - pruned/original), half-even rounded to 2 decimals."""
    if original <= 0:
        raise ValueError("original count must be positive")
    from .util import round_half_even

    return round_half_even(100.0 * (1.0 - pruned / original), 2)


def compression_report(template: ArchTemplate, original, pruned) -> tuple[float, float]:
    """(param drop %, FLOP drop %) of ``pruned`` relative to ``original``."""
    p0 = param_count(template, original)
    p1 = param_count(template, pruned)
    f0 = flops_count(template, original)
    f1 = flops_count(template, pruned)
    return drop_percent(p0, p1), drop_percent(f0, f1)


# ---------------------------------------------------------------------------
# Built-in templates

_VGG16_WIDTHS = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
                 512, 512, 512, "M", 512, 512, 512, "M"]


def vgg16_cifar(num_classes: int = 10) -> ArchTemplate:
    """13-conv VGG-16 for 32x32 inputs with batchnorm and a single fc head."""
    defs = []
    for v in _VGG16_WIDTHS:
        if v == "M":
            defs.append(LayerDef(KIND_POOL, kernel=2, stride=2))
        else:
            defs.append(LayerDef(KIND_CONV, out_channels=v, kernel=3, stride=1, padding=1))
            defs.append(LayerDef(KIND_BN))
            defs.append(LayerDef(KIND_ACT))
    defs.append(LayerDef(KIND_HEAD))
    return assemble("vgg16-cifar", (3, 32, 32), num_classes, defs)


def tiny4(num_classes: int = 10, image_size: int = 16, in_channels: int = 3) -> ArchTemplate:
    """Desk-scale 4-conv net; each block is conv/bn/relu/pool."""
    defs = []
    for width in (8, 16, 16, 32):
        defs.append(LayerDef(KIND_CONV, out_channels=width, kernel=3, stride=1, padding=1))
        defs.append(LayerDef(KIND_BN))
        defs.append(LayerDef(KIND_ACT))
        defs.append(LayerDef(KIND_POOL, kernel=2, stride=2))
    defs.append(LayerDef(KIND_HEAD))
    return assemble("tiny4", (in_channels, image_size, image_size), num_classes, defs)


BUILTIN_TEMPLATES = {"vgg16-cifar": vgg16_cifar, "tiny4": tiny4}


def template_from_dict(d: dict) -> ArchTemplate:
    """The template of a ``to_config_dict`` dict; rejects settings a kind does not take."""
    try:
        name = d.get("name", "custom")
        input_shape = tuple(int(v) for v in d["input_shape"])
        num_classes = int(d["num_classes"])
        defs = []
        for idx, entry in enumerate(d["layers"]):
            entry = dict(entry)
            kind = entry.pop("kind")
            unknown = [k for k in entry if kind in _FIELDS and k not in _FIELDS[kind]]
            try:
                if unknown:
                    raise StructureError(
                        f"a {kind} layer takes no {', '.join(unknown)} "
                        f"(it takes: {', '.join(_FIELDS[kind]) or 'no settings'})")
                defs.append(LayerDef(kind=kind, **entry))
            except StructureError as exc:
                raise StructureError(f"layer {idx}: {exc}") from None
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed template config: {exc}") from exc
    prunable = d.get("prunable_slots")
    return assemble(name, input_shape, num_classes, defs, prunable)


def load_template(path) -> ArchTemplate:
    data = read_yaml(path, "template")
    if not isinstance(data, dict):
        raise StructureError(f"template file {path} does not hold a mapping")
    return template_from_dict(data)


def get_template(name_or_path: str, num_classes: int | None = None) -> ArchTemplate:
    """Resolve a built-in template name or a YAML template path."""
    if name_or_path in BUILTIN_TEMPLATES:
        factory = BUILTIN_TEMPLATES[name_or_path]
        return factory(num_classes) if num_classes is not None else factory()
    path = Path(name_or_path)
    if path.exists():
        return load_template(path)
    raise StructureError(
        f"unknown template {name_or_path!r}; built-ins: {sorted(BUILTIN_TEMPLATES)}"
    )
