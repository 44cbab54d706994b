"""Loss histories of every pipeline variant, pinned to literals.

Each variant trains two epochs of three steps on a fixed dataset; every
(intra_pos, intra_neg, inter, total) row must match the recorded values
within 1e-12. Any change to what a training step computes shows up here.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from groupcontrast.config import RunConfig
from groupcontrast.graphs import generate_planted_motif_dataset
from groupcontrast.trainer import train

DATASET = generate_planted_motif_dataset(7, 40, 14, 8)

VARIANTS = {
    "groupcl-tied": dict(),
    "groupcl-untied": dict(tie_views=False),
    "groupcl-param": dict(estimator="param"),
    "groupcl-p1": dict(num_groups=1),
    "groupcl-all-kinds": dict(aug_kinds="node-drop,edge-perturb,attribute-mask,subgraph",
                              learnable_eps=True, scale_scores=True),
    "groupig-nonparam": dict(pipeline="groupig"),
    "groupig-param": dict(pipeline="groupig", estimator="param"),
    "groupig-weight0": dict(pipeline="groupig", diversity_weight=0.0),
    "baseline-tied": dict(pipeline="graphcl-baseline"),
    "baseline-untied": dict(pipeline="graphcl-baseline", tie_views=False),
    "baseline-param": dict(pipeline="graphcl-baseline", estimator="param"),
    "groupcl-gin0": dict(gin_layers=0),
    "baseline-gin0": dict(pipeline="graphcl-baseline", gin_layers=0),
}

PINNED = {
    "groupcl-tied": [
        (0.3160017128416045, 1.277681661104315, 1.3124966078081681, 2.249931677850004),
        (0.3152262932662617, 1.2502684018983803, 1.3127632631361705, 2.221876326732727),
        (0.32047411247447133, 1.1990891755871305, 1.3125234304225257, 2.1758250032728648),
        (0.32404712511213, 1.197997226606439, 1.3113146081070195, 2.1777016557720787),
        (0.3318248232253319, 1.1105527487942854, 1.312632254748109, 2.098693699393672),
        (0.31880664307991424, 1.099918238737564, 1.3121600278252052, 2.0748048957300806),
    ],
    "groupcl-untied": [
        (0.669368117437245, 0.7116985707010691, 1.3124966078081681, 2.037314992042398),
        (0.7192834708635889, 0.6608757253641963, 1.3128614293165377, 2.036589910886054),
        (0.6939712327718986, 0.6815604325621424, 1.3127179306624472, 2.0318906306652647),
        (0.6655737471843733, 0.6923583443888036, 1.3123317450766998, 2.014097964111527),
        (0.6518098409993451, 0.6981642054878853, 1.312426825842398, 2.0061874594084292),
        (0.6571444619190706, 0.6898706361029848, 1.31207638117491, 2.0030532886095105),
    ],
    "groupcl-param": [
        (0.3160017128416045, 1.277681661104315, -2.268654705113924, 0.4593560213889576),
        (0.31439096847329845, 1.2774524459294567, -2.183829292150386, 0.49992876832756217),
        (0.31583093585063626, 1.2740365868642258, -2.106682694866854, 0.536526175281435),
        (0.31540384912978103, 1.2914628912253068, -2.139365840692225, 0.5371838200089754),
        (0.31524363630736296, 1.2814802477376581, -1.9743305814777221, 0.60955859330616),
        (0.31381442981957375, 1.2933362068631487, -1.871106080826544, 0.6715975962694504),
    ],
    "groupcl-p1": [
        (0.3168482935627082, 1.271641099186138, 0.0, 1.5884893927488462),
        (0.3163027676840122, 1.2343851518388322, 0.0, 1.5506879195228445),
        (0.3241445277686533, 1.1734941299551636, 0.0, 1.497638657723817),
        (0.3231097532969577, 1.176416128567774, 0.0, 1.4995258818647317),
        (0.33843238137400855, 1.0877960125354922, 0.0, 1.4262283939095006),
        (0.3229665123733954, 1.086404594994179, 0.0, 1.4093711073675743),
    ],
    "groupcl-all-kinds": [
        (0.3153685915872052, 1.2743795424718711, 1.3132425907496987, 2.246369429433926),
        (0.3153491673614846, 1.2577242629831502, 1.3132405389996509, 2.2296936998444603),
        (0.3169972289484826, 1.2178281571134102, 1.3132241560426539, 2.1914374640832195),
        (0.31888562457966185, 1.2081554979266127, 1.3131844929748357, 2.1836333689936924),
        (0.32490251010381616, 1.1393817819594927, 1.3132049568292288, 2.1208867704779233),
        (0.3220055857443341, 1.1443350064213118, 1.313189339918063, 2.1229352621246775),
    ],
    "groupig-nonparam": [
        (0.5615794761661331, 0.8423838238331325, 1.3124914697502787, 2.060209034874405),
        (0.6012083263177485, 0.790630849582195, 1.3118309369920769, 2.047754644395982),
        (0.6393400311517647, 0.743372411074259, 1.310728895621931, 2.038076890036989),
        (0.6781681938012076, 0.702096408051601, 1.3071912742860992, 2.0338602389958584),
        (0.6940925282373558, 0.678641488890941, 1.3048644537063316, 2.0251662439814626),
        (0.7277825234871482, 0.6492999535044375, 1.3010883311595554, 2.0276266425713634),
    ],
    "groupig-param": [
        (0.5615794761661331, 0.8423838238331325, -1.1964935186775452, 0.8057165406604929),
        (0.5770266116313701, 0.8214233020867848, -1.0857926786176038, 0.8555535744093531),
        (0.596279432621092, 0.7968422039194836, -0.9610308784698668, 0.9126061973056423),
        (0.6133574036910648, 0.7771152396186556, -0.8704127599137481, 0.9552662633528465),
        (0.6325462554025556, 0.7540805515171494, -0.7454059100788746, 1.0139238518802678),
        (0.654372084024825, 0.7311762042249372, -0.6404849011868485, 1.065305837656338),
    ],
    "groupig-weight0": [
        (0.5615794761661331, 0.8423838238331325, 0.0, 1.4039632999992655),
        (0.6007220665766845, 0.7911409490509819, 0.0, 1.3918630156276663),
        (0.6388149809319104, 0.7438894315806939, 0.0, 1.3827044125126042),
        (0.6787676952765568, 0.7013966211209225, 0.0, 1.3801643163974793),
        (0.6935966225701211, 0.678652701653984, 0.0, 1.372249324224105),
        (0.7270702432333209, 0.6496462108317824, 0.0, 1.3767164540651033),
    ],
    "baseline-tied": [
        (0.3155192285433711, 1.286837178255332, 0.0, 1.602356406798703),
        (0.31590847729411764, 1.2297093215928274, 0.0, 1.545617798886945),
        (0.3322549199398257, 1.1173660916433057, 0.0, 1.4496210115831314),
        (0.34241568270026473, 1.0571724204471145, 0.0, 1.3995881031473791),
        (0.3587060484149518, 0.9278035998206972, 0.0, 1.2865096482356488),
        (0.33081106054757853, 0.8828249232439331, 0.0, 1.2136359837915116),
    ],
    "baseline-untied": [
        (0.5995077250366136, 0.7989722317532848, 0.0, 1.3984799567898984),
        (0.7989885445797866, 0.5965458529108199, 0.0, 1.3955343974906065),
        (0.7679129189133815, 0.6256402837948752, 0.0, 1.3935532027082567),
        (0.7152796015510259, 0.6693826258469115, 0.0, 1.3846622273979374),
        (0.6505343802072615, 0.732937890290442, 0.0, 1.3834722704977036),
        (0.6272651443180204, 0.7617438657388262, 0.0, 1.3890090100568466),
    ],
    "baseline-param": [
        (0.3155192285433711, 1.286837178255332, 0.0, 1.602356406798703),
        (0.31590847729411764, 1.2297093215928274, 0.0, 1.545617798886945),
        (0.3322549199398257, 1.1173660916433057, 0.0, 1.4496210115831314),
        (0.34241568270026473, 1.0571724204471145, 0.0, 1.3995881031473791),
        (0.3587060484149518, 0.9278035998206972, 0.0, 1.2865096482356488),
        (0.33081106054757853, 0.8828249232439331, 0.0, 1.2136359837915116),
    ],
    "groupcl-gin0": [
        (0.32741699010223546, 1.120844654384299, 1.2990965110162267, 2.0978098999946475),
        (0.32303456165678296, 1.120598095488133, 1.299546394584079, 2.0934058544369556),
        (0.32643955745731357, 1.062334380163818, 1.2990016139095015, 2.038274744575882),
        (0.3288877401388261, 1.1259336990089834, 1.2955119744992332, 2.102577426397426),
        (0.3283715066607768, 1.0855438229653978, 1.2964922879194438, 2.0621614735858964),
        (0.32401685908037114, 1.1363807800659762, 1.2923542075456411, 2.106574742919168),
    ],
    "baseline-gin0": [
        (0.3224119107092297, 1.195634879893186, 0.0, 1.5180467906024155),
        (0.32416022198979666, 1.1342080045211167, 0.0, 1.4583682265109132),
        (0.3307955500120446, 1.0271705850571993, 0.0, 1.3579661350692438),
        (0.342685078999288, 1.0232152626233793, 0.0, 1.3659003416226674),
        (0.3405132420586675, 0.9064929326214115, 0.0, 1.2470061746800791),
        (0.3522608438135333, 0.9096112162858834, 0.0, 1.2618720600994167),
    ],
}


def history_of(name: str) -> list[tuple[float, ...]]:
    cfg = RunConfig(seed=11, epochs=2, batch_size=16, **VARIANTS[name])
    _, history = train(cfg, DATASET)
    return [(r.intra_positive, r.intra_negative, r.inter_penalty, r.total) for r in history]


@pytest.mark.parametrize("name", list(VARIANTS))
def test_history_matches_pinned_values(name):
    got = history_of(name)
    want = PINNED[name]
    assert len(got) == len(want)
    for row, expected in zip(got, want):
        assert row == pytest.approx(expected, rel=0, abs=1e-12)


# prints every variant's history as exact hex floats, in a fresh process whose
# BLAS thread count the environment sets
_HISTORIES = """
import json
from test_step_pins import VARIANTS, history_of
print(json.dumps({name: [[x.hex() for x in row] for row in history_of(name)]
                  for name in VARIANTS}))
"""


def _histories_at(threads: int) -> dict[str, list[list[str]]]:
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    out = subprocess.run([sys.executable, "-c", _HISTORIES], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return json.loads(out)


def test_pins_hold_at_one_and_two_blas_threads():
    # the thread count may change the order in which BLAS sums a product:
    # every variant stays within the pins' 1e-12 at one thread and at two,
    # and GroupIG's histories are byte-equal across the two
    runs = {threads: _histories_at(threads) for threads in (1, 2)}
    for name in VARIANTS:
        for threads, histories in runs.items():
            got = [tuple(float.fromhex(x) for x in row) for row in histories[name]]
            assert len(got) == len(PINNED[name]), (name, threads)
            for row, expected in zip(got, PINNED[name]):
                assert row == pytest.approx(expected, rel=0, abs=1e-12), (name, threads)
        if VARIANTS[name].get("pipeline") == "groupig":
            assert runs[1][name] == runs[2][name], name


if __name__ == "__main__":
    # print the current histories as a PINNED literal, for re-recording:
    #     PYTHONPATH=src python tests/test_step_pins.py
    print("PINNED = {")
    for name in VARIANTS:
        print(f"    {name!r}: [".replace("'", '"'))
        for row in history_of(name):
            print(f"        {row!r},")
        print("    ],")
    print("}")
