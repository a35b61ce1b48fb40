"""Snapshot fixtures for the relational converter tests."""

import random

CHEM_TABLES = {
    "mendelev.csv": (
        "1,H,1.0079,1\n"
        "2,He,4.0026,2\n"
        "3,Li,6.941,1\n"
        "4,Be,9.0121,2\n"
        "5,B,10.811,3\n"
        "6,C,12.011,4\n"
    ),
    "molecules.csv": (
        "H2O,water,inorganic\n"
        "CO2,carbon dioxide,inorganic\n"
        "CO,carbon monoxide,inorganic\n"
        "CH4,methane,organic\n"
        "CH3OH,methanol,organic\n"
    ),
    "contains.csv": ("H2O,h2o-1\nH2O,h2o-2\nH2O,h2o-3\nCO2,co2-1\nCO2,co2-2\n"),
    "atoms.csv": ("h2o-1,H\nh2o-2,O\nh2o-3,H\nco2-1,O\n"),
    "bonds.csv": ("h2o-1,h2o-2,single\nh2o-2,h2o-3,single\nco2-1,co2-2,double\nco2-2,co2-3,double\n"),
}

CHEM_SCHEMA = """
table(molecules, [formula, name, class]).
key(molecules, [formula]).
table(contains, [molecule, atom_id]).
fk(contains, [molecule], molecules).
fk(contains, [atom_id], atoms).
table(atoms, [atom_id, element]).
key(atoms, [atom_id]).
fk(atoms, [element], mendelev).
table(bonds, [atom_id1, atom_id2, type]).
fk(bonds, [atom_id1], atoms).
fk(bonds, [atom_id2], atoms).
table(mendelev, [number, symbol, weight, electrons]).
key(mendelev, [symbol]).
background(mendelev).
example_id(molecules, formula).
"""

CHEM_SCHEMA_WITH_CLASS = CHEM_SCHEMA + "class_attr(molecules, class).\n"

H2O_FACTS = [
    "molecules('H2O',water,inorganic)",
    "contains('H2O',h2o-1)",
    "contains('H2O',h2o-2)",
    "contains('H2O',h2o-3)",
    "atoms(h2o-1,'H')",
    "atoms(h2o-2,'O')",
    "atoms(h2o-3,'H')",
    "bonds(h2o-1,h2o-2,single)",
    "bonds(h2o-2,h2o-3,single)",
]

BONGARD_TABLES = {
    "contains.csv": "1,o1\n1,o2\n2,o3\n2,o4\n2,o5\n",
    "circle.csv": "o1\no3\n",
    "triangle.csv": "o2\no4\no5\n",
    "points.csv": "o2,up\no4,up\no5,down\n",
    "inside.csv": "o2,o1\no4,o5\n",
}

BONGARD_SCHEMA = """
table(contains, [picture, object]).
key(contains, [object]).
table(circle, [object]).
fk(circle, [object], contains).
table(triangle, [object]).
fk(triangle, [object], contains).
table(points, [object, direction]).
fk(points, [object], contains).
table(inside, [inner, outer]).
fk(inside, [inner], contains).
fk(inside, [outer], contains).
example_id(contains, picture).
drop_id.
elide(contains).
"""


BONGARD_LABELLED_SCHEMA = (
    BONGARD_SCHEMA.replace("table(contains, [picture, object]).", "table(contains, [picture, object, class]).")
    + "class_attr(contains, class).\n"
)


def bongard_tables(n, seed, labelled=False):
    """Tables for ``BONGARD_SCHEMA`` with ``n`` pictures of 2 to 5 objects
    each: every object a circle or a pointing triangle, and one object of
    each picture inside another.  With ``labelled``, the tables are for
    ``BONGARD_LABELLED_SCHEMA``: ``contains`` gets the class of the picture,
    ``pos`` iff a triangle is inside an object, the concept of the scene
    generator."""
    rng = random.Random(seed)
    tables = {name: [] for name in ("contains", "circle", "triangle", "points", "inside")}
    obj = 0
    for picture in range(1, n + 1):
        objects, triangles = [], set()
        for _ in range(rng.randint(2, 5)):
            obj += 1
            objects.append(f"o{obj}")
            if rng.random() < 0.5:
                tables["circle"].append(f"o{obj}\n")
            else:
                triangles.add(f"o{obj}")
                tables["triangle"].append(f"o{obj}\n")
                tables["points"].append(f"o{obj},{rng.choice(('up', 'down'))}\n")
        inner, outer = rng.sample(objects, 2)
        tables["inside"].append(f"{inner},{outer}\n")
        label = ("," + ("pos" if inner in triangles else "neg")) if labelled else ""
        tables["contains"].extend(f"{picture},{o}{label}\n" for o in objects)
    return {f"{name}.csv": "".join(rows) for name, rows in tables.items()}


def write_tables(directory, tables):
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in tables.items():
        (directory / name).write_text(content)
    return directory
