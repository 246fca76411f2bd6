import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit import archspec
from prunekit.archspec import (
    ArchTemplate,
    LayerDef,
    assemble,
    compression_report,
    drop_percent,
    flops_count,
    get_template,
    instantiate,
    param_count,
)
from prunekit.errors import BoundsError, StructureError


def two_conv_template():
    defs = [
        LayerDef("conv", out_channels=16, kernel=3, padding=1),
        LayerDef("activation"),
        LayerDef("conv", out_channels=32, kernel=3, padding=1),
        LayerDef("activation"),
        LayerDef("classifier-head"),
    ]
    return assemble("twoconv", (3, 8, 8), 10, defs)


class TestAssemble:
    def test_channel_chaining(self):
        t = two_conv_template()
        convs = [s for s in t.layers if s.kind == archspec.KIND_CONV]
        assert convs[0].in_channels == 3 and convs[0].out_channels == 16
        assert convs[1].in_channels == 16 and convs[1].out_channels == 32

    def test_conv_spatial_arithmetic(self):
        defs = [LayerDef("conv", out_channels=4, kernel=5, stride=2, padding=1),
                LayerDef("classifier-head")]
        t = assemble("s", (1, 11, 11), 2, defs)
        # (11 + 2*1 - 5) // 2 + 1 = 5
        assert t.layers[0].out_spatial == (5, 5)

    def test_pool_cannot_shrink_below_one(self):
        defs = [LayerDef("conv", out_channels=4, kernel=3, padding=1),
                LayerDef("pool", kernel=2, stride=2),
                LayerDef("pool", kernel=2, stride=2),
                LayerDef("pool", kernel=2, stride=2),
                LayerDef("classifier-head")]
        with pytest.raises(StructureError):
            assemble("deep-pool", (1, 4, 4), 2, defs)

    def test_head_flattens_channels_times_spatial(self):
        t = two_conv_template()
        head = t.layers[-1]
        assert head.in_channels == 32 * 8 * 8
        assert head.out_channels == 10

    def test_prunable_defaults_to_all_convs(self):
        t = two_conv_template()
        assert t.prunable_slots == (0, 2)

    def test_prunable_slot_must_be_conv(self):
        defs = [LayerDef("conv", out_channels=4, kernel=3, padding=1),
                LayerDef("activation"),
                LayerDef("classifier-head")]
        with pytest.raises(StructureError):
            assemble("bad", (1, 4, 4), 2, defs, prunable_slots=(1,))


class TestInstantiate:
    def test_identity_structure_reproduces_template(self):
        t = get_template("vgg16-cifar")
        same = instantiate(t, t.original_structure())
        assert param_count(same) == param_count(t)
        assert flops_count(same) == flops_count(t)
        assert [s.out_channels for s in same.layers] == [s.out_channels for s in t.layers]

    def test_chain_rewires_downstream_inputs(self):
        t = two_conv_template()
        pruned = instantiate(t, (8, 20))
        convs = [s for s in pruned.layers if s.kind == archspec.KIND_CONV]
        assert convs[0].out_channels == 8
        assert convs[1].in_channels == 8
        assert convs[1].out_channels == 20

    def test_over_bound_names_slot(self):
        t = two_conv_template()
        for structure in ((17, 32), (0, 32)):
            with pytest.raises(BoundsError, match="slot 0"):
                instantiate(t, structure)

    def test_wrong_length_rejected(self):
        t = two_conv_template()
        with pytest.raises(StructureError):
            instantiate(t, (8,))

    @pytest.mark.parametrize("structure,slot", [((8.5, 20), 0), ((8, True), 1)])
    def test_non_integer_width_names_slot(self, structure, slot):
        t = two_conv_template()
        with pytest.raises(BoundsError, match=rf"width {structure[slot]} of slot {slot} "):
            instantiate(t, structure)


class TestParamCount:
    def test_single_conv_with_bias(self):
        defs = [LayerDef("conv", out_channels=16, kernel=3, padding=1),
                LayerDef("classifier-head", bias=False)]
        t = assemble("c", (3, 4, 4), 2, defs)
        conv_params = 3 * 16 * 9 + 16
        assert conv_params == 448
        head_params = 16 * 4 * 4 * 2
        assert param_count(t) == conv_params + head_params

    def test_one_by_one_conv_no_bias_is_single_parameter(self):
        defs = [LayerDef("conv", out_channels=1, kernel=1, bias=False)]
        t = assemble("one", (1, 1, 1), 2, defs, prunable_slots=())
        assert param_count(t) == 1

    def test_batchnorm_adds_scale_and_shift(self):
        base = [LayerDef("conv", out_channels=8, kernel=3, padding=1, bias=False)]
        with_bn = base + [LayerDef("batchnorm")]
        t0 = assemble("a", (1, 4, 4), 2, base, prunable_slots=(0,))
        t1 = assemble("b", (1, 4, 4), 2, with_bn, prunable_slots=(0,))
        assert param_count(t1) - param_count(t0) == 2 * 8


class TestFlopsCount:
    def test_single_conv_closed_form(self):
        defs = [LayerDef("conv", out_channels=16, kernel=3, padding=1)]
        t = assemble("c", (3, 32, 32), 2, defs, prunable_slots=(0,))
        assert flops_count(t) == 16 * 3 * 9 * 32 * 32 == 442368

    def test_activation_and_unit_pool_contribute_zero(self):
        conv_only = [LayerDef("conv", out_channels=8, kernel=3, padding=1)]
        padded = conv_only + [LayerDef("activation"), LayerDef("pool", kernel=1, stride=1)]
        t0 = assemble("a", (3, 8, 8), 2, conv_only, prunable_slots=(0,))
        t1 = assemble("b", (3, 8, 8), 2, padded, prunable_slots=(0,))
        assert flops_count(t0) == flops_count(t1)


class TestVggCalibration:
    def test_parameters_near_published_total(self):
        t = get_template("vgg16-cifar")
        assert param_count(t) == pytest.approx(14.73e6, rel=0.02)

    def test_flops_near_published_total(self):
        t = get_template("vgg16-cifar")
        assert flops_count(t) == pytest.approx(314.59e6, rel=0.02)

    def test_thirteen_prunable_convs(self):
        t = get_template("vgg16-cifar")
        assert len(t.prunable_slots) == 13
        assert tuple(t.original_structure()) == (
            64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512)


class TestDropPercent:
    def test_identity_is_zero(self):
        t = two_conv_template()
        orig = t.original_structure()
        assert compression_report(t, orig, orig) == (0.0, 0.0)

    def test_half_even_rounding_convention(self):
        # ties are decided by the shared rounding helper; see test_util
        from prunekit.util import round_half_even
        assert round_half_even(0.125, 2) == 0.12
        assert round_half_even(0.135, 2) == 0.14
        assert round_half_even(2.675, 2) == 2.68

    def test_plain_percentages(self):
        assert drop_percent(200, 100) == 50.0
        assert drop_percent(1024, 1023) == 0.10

    def test_published_param_drop_pairing(self):
        t = get_template("vgg16-cifar")
        drop = drop_percent(param_count(t), 5.02e6)
        assert drop == pytest.approx(65.72, abs=0.35)

    def test_published_flop_drop_pairing(self):
        t = get_template("vgg16-cifar")
        drop = drop_percent(flops_count(t), 93.52e6)
        assert drop == pytest.approx(70.25, abs=0.35)


@st.composite
def tiny4_structures(draw):
    bounds = (8, 16, 16, 32)
    return tuple(draw(st.integers(1, b)) for b in bounds)


class TestAccountingProperties:
    @settings(max_examples=40, deadline=None)
    @given(tiny4_structures(), st.integers(0, 3))
    def test_counts_strictly_increase_per_channel(self, structure, slot):
        t = archspec.tiny4()
        bounds = t.original_structure()
        if structure[slot] == bounds[slot]:
            structure = tuple(
                v - 1 if i == slot and v > 1 else v for i, v in enumerate(structure))
            if structure[slot] == bounds[slot]:
                return  # bound is 1; nothing to bump
        bumped = tuple(v + 1 if i == slot else v for i, v in enumerate(structure))
        assert param_count(t, bumped) > param_count(t, structure)
        assert flops_count(t, bumped) > flops_count(t, structure)

    @settings(max_examples=40, deadline=None)
    @given(tiny4_structures())
    def test_pruned_flops_never_exceed_original(self, structure):
        t = archspec.tiny4()
        assert flops_count(t, structure) <= flops_count(t)
        if tuple(structure) == tuple(t.original_structure()):
            assert flops_count(t, structure) == flops_count(t)
        else:
            assert flops_count(t, structure) < flops_count(t)


class TestTemplateSerialization:
    def test_config_dict_roundtrip_preserves_hash(self):
        t = archspec.tiny4(num_classes=7)
        back = archspec.template_from_dict(t.to_config_dict())
        assert back.template_hash() == t.template_hash()
        assert tuple(back.original_structure()) == tuple(t.original_structure())

    def test_yaml_file_loads(self, tmp_path):
        t = two_conv_template()
        path = tmp_path / "twoconv.yaml"
        path.write_text(yaml.safe_dump(t.to_config_dict()))
        loaded = get_template(str(path))
        assert param_count(loaded) == param_count(t)

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(StructureError, match="vgg16-cifar"):
            get_template("resnet-9000")

    @pytest.mark.parametrize("layer,key", [
        ({"kind": "batchnorm", "kernel": 3}, "kernel"),
        ({"kind": "pool", "kernel": 2, "stride": 2, "bias": False}, "bias"),
        # MaxPool pads nothing, so a padded pool would size the head wrongly
        ({"kind": "pool", "kernel": 3, "stride": 2, "padding": 1}, "padding"),
    ])
    def test_setting_the_kind_does_not_take_is_rejected(self, layer, key):
        d = two_conv_template().to_config_dict()
        d["layers"].insert(1, layer)
        want = rf"^layer 1: a {layer['kind']} layer takes no {key} "
        with pytest.raises(StructureError, match=want):
            archspec.template_from_dict(d)

    def test_builtin_hashes_are_pinned(self):
        # the hash names every checkpoint's template; a change orphans them
        assert archspec.tiny4(10).template_hash() == (
            "0b6029803b53802922156082316e51c3554c7618aeb3cdd20f09f36dead3236b")
        assert archspec.vgg16_cifar(10).template_hash() == (
            "f0446fe913bd5ce952acc79fd07f244cbc937936730c297413bf49c8dc41864b")

    def test_hash_ignores_name(self):
        a = assemble("first", (1, 4, 4), 2,
                     [LayerDef("conv", out_channels=2, kernel=3, padding=1),
                      LayerDef("classifier-head")])
        b = assemble("second", (1, 4, 4), 2,
                     [LayerDef("conv", out_channels=2, kernel=3, padding=1),
                      LayerDef("classifier-head")])
        assert a.template_hash() == b.template_hash()
