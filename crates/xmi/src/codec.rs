//! The XMI codec: `comet-model` ⇄ XMI-1.2-flavoured XML.
//!
//! Export streams each element straight into one `String`; import
//! parses an [`XmlNode`] tree and decodes from that.
//!
//! **Byte-identity contract.** The export bytes are the repository's
//! snapshot format, and their FNV-1a hash is each revision's content
//! address, so the layout is frozen. The workspace's golden documents
//! (`tests/golden/xmi`) pin it, and `tests/xmi_interop.rs` checks the
//! streaming writer against the tree-building writer it replaced.

use crate::xml::{parse_xml, XmlError, XmlNode};
use comet_model::{
    AggregationKind, AssociationData, AssociationEnd, AttributeData, ClassData, ConstraintData,
    DataTypeData, DependencyData, Direction, Element, ElementCore, ElementId, ElementKind,
    EnumerationData, GeneralizationData, InterfaceData, Model, Multiplicity, OperationData,
    PackageData, ParameterData, Primitive, TagValue, TypeRef, Visibility,
};
use std::fmt::{self, Write};

/// XMI import failure.
#[derive(Debug, Clone, PartialEq)]
pub enum XmiError {
    /// The document is not well-formed XML.
    Xml(XmlError),
    /// A structurally required node or attribute is missing.
    Missing(String),
    /// An attribute value could not be decoded.
    Bad(String),
    /// The decoded model failed well-formedness validation.
    Invalid(String),
}

impl fmt::Display for XmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmiError::Xml(e) => write!(f, "xml: {e}"),
            XmiError::Missing(w) => write!(f, "missing {w}"),
            XmiError::Bad(w) => write!(f, "malformed {w}"),
            XmiError::Invalid(w) => write!(f, "invalid model: {w}"),
        }
    }
}

impl std::error::Error for XmiError {}

impl From<XmlError> for XmiError {
    fn from(e: XmlError) -> Self {
        XmiError::Xml(e)
    }
}

/// The XMI spelling of each enumerated value, for both directions.
const VISIBILITY: [(Visibility, &str); 4] = [
    (Visibility::Public, "public"),
    (Visibility::Protected, "protected"),
    (Visibility::Package, "package"),
    (Visibility::Private, "private"),
];
const DIRECTION: [(Direction, &str); 4] = [
    (Direction::In, "in"),
    (Direction::Out, "out"),
    (Direction::InOut, "inout"),
    (Direction::Return, "return"),
];
const AGGREGATION: [(AggregationKind, &str); 3] = [
    (AggregationKind::None, "none"),
    (AggregationKind::Shared, "shared"),
    (AggregationKind::Composite, "composite"),
];

fn word<T: PartialEq>(table: &[(T, &'static str)], value: T) -> &'static str {
    table.iter().find(|(v, _)| *v == value).map(|(_, w)| *w).expect("every variant is listed")
}

fn parse_word<T: Copy>(table: &[(T, &str)], word: &str, what: &str) -> Result<T, XmiError> {
    table
        .iter()
        .find(|(_, w)| *w == word)
        .map(|(v, _)| *v)
        .ok_or_else(|| XmiError::Bad(format!("{what} `{word}`")))
}

fn parse_type(s: &str) -> Result<TypeRef, XmiError> {
    if let Some(raw) = s.strip_prefix('#') {
        let id: u64 = raw.parse().map_err(|_| XmiError::Bad(format!("type ref `{s}`")))?;
        Ok(TypeRef::Element(ElementId::from_raw(id)))
    } else {
        Primitive::parse(s)
            .map(TypeRef::Primitive)
            .ok_or_else(|| XmiError::Bad(format!("type `{s}`")))
    }
}

fn parse_mult(s: &str) -> Result<Multiplicity, XmiError> {
    let (lo, hi) =
        s.split_once("..").ok_or_else(|| XmiError::Bad(format!("multiplicity `{s}`")))?;
    let lower: u32 = lo.parse().map_err(|_| XmiError::Bad(format!("multiplicity `{s}`")))?;
    let upper = if hi == "*" {
        None
    } else {
        Some(hi.parse().map_err(|_| XmiError::Bad(format!("multiplicity `{s}`")))?)
    };
    Ok(Multiplicity { lower, upper })
}

fn parse_id(s: &str) -> Result<ElementId, XmiError> {
    let raw = s.strip_prefix('#').ok_or_else(|| XmiError::Bad(format!("id `{s}`")))?;
    let n: u64 = raw.parse().map_err(|_| XmiError::Bad(format!("id `{s}`")))?;
    Ok(ElementId::from_raw(n))
}

fn parse_tag_value(node: &XmlNode) -> Result<TagValue, XmiError> {
    let ty = node.get_attr("type").ok_or_else(|| XmiError::Missing("tag type".into()))?;
    let value = || node.get_attr("value").ok_or_else(|| XmiError::Missing("tag value".into()));
    match ty {
        "str" => Ok(TagValue::Str(value()?.to_owned())),
        "int" => value()?.parse().map(TagValue::Int).map_err(|_| XmiError::Bad("int tag".into())),
        "bool" => {
            value()?.parse().map(TagValue::Bool).map_err(|_| XmiError::Bad("bool tag".into()))
        }
        "real" => {
            value()?.parse().map(TagValue::Real).map_err(|_| XmiError::Bad("real tag".into()))
        }
        "list" => {
            let mut items = Vec::new();
            for c in node.find_children("UML:Value") {
                items.push(parse_tag_value(c)?);
            }
            Ok(TagValue::List(items))
        }
        other => Err(XmiError::Bad(format!("tag type `{other}`"))),
    }
}

fn parse_end(node: &XmlNode) -> Result<AssociationEnd, XmiError> {
    Ok(AssociationEnd {
        role: node.get_attr("role").unwrap_or_default().to_owned(),
        class: parse_id(
            node.get_attr("class").ok_or_else(|| XmiError::Missing("end class".into()))?,
        )?,
        multiplicity: parse_mult(
            node.get_attr("multiplicity")
                .ok_or_else(|| XmiError::Missing("end multiplicity".into()))?,
        )?,
        navigable: node
            .get_attr("navigable")
            .unwrap_or("true")
            .parse()
            .map_err(|_| XmiError::Bad("navigable".into()))?,
        aggregation: parse_word(
            &AGGREGATION,
            node.get_attr("aggregation").unwrap_or("none"),
            "aggregation",
        )?,
    })
}

/// Appends `s` to `out` with the five XML metacharacters replaced by
/// their predefined entities. The runs between metacharacters are
/// copied whole, so a value that holds none — nearly every name, id and
/// type in a model — costs a single `push_str`.
fn escape(s: &str, out: &mut String) {
    let mut copied = 0;
    for (i, byte) in s.bytes().enumerate() {
        let entity = match byte {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            _ => continue,
        };
        // Metacharacters are ASCII, so `i` is always a char boundary.
        out.push_str(&s[copied..i]);
        out.push_str(entity);
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// The streaming writer: start tags, attributes and end tags go
/// straight into one `String`, two spaces of indent per level and one
/// element per line. A start tag stays open until its first child
/// seals it with `>`, so an element that gets no child closes itself
/// with `/>`.
struct XmiWriter {
    out: String,
    unsealed: bool,
}

impl XmiWriter {
    /// Starts `<tag` on its own line at nesting `depth`.
    fn open(&mut self, depth: usize, tag: &str) {
        if std::mem::take(&mut self.unsealed) {
            self.out.push_str(">\n");
        }
        self.out.extend(std::iter::repeat_n("  ", depth));
        self.out.push('<');
        self.out.push_str(tag);
        self.unsealed = true;
    }

    fn close(&mut self, depth: usize, tag: &str) {
        if std::mem::take(&mut self.unsealed) {
            self.out.push_str("/>\n");
        } else {
            self.out.extend(std::iter::repeat_n("  ", depth));
            writeln!(self.out, "</{tag}>").expect("writing to a String cannot fail");
        }
    }

    fn key(&mut self, key: &str) {
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push_str("=\"");
    }

    /// ` key="value"` with the value escaped.
    fn text(&mut self, key: &str, value: &str) {
        self.key(key);
        escape(value, &mut self.out);
        self.out.push('"');
    }

    /// ` key="value"` for a formatted value that holds no
    /// metacharacter: ids, numbers, multiplicities.
    fn raw(&mut self, key: &str, value: fmt::Arguments<'_>) {
        self.key(key);
        self.out.write_fmt(value).expect("writing to a String cannot fail");
        self.out.push('"');
    }

    fn flag(&mut self, key: &str, value: bool) {
        self.text(key, if value { "true" } else { "false" });
    }

    fn id(&mut self, key: &str, id: ElementId) {
        self.raw(key, format_args!("#{}", id.raw()));
    }

    fn ty(&mut self, key: &str, ty: TypeRef) {
        match ty {
            TypeRef::Primitive(p) => self.text(key, p.name()),
            TypeRef::Element(id) => self.id(key, id),
        }
    }

    fn mult(&mut self, key: &str, m: Multiplicity) {
        match m.upper {
            Some(upper) => self.raw(key, format_args!("{}..{upper}", m.lower)),
            None => self.raw(key, format_args!("{}..*", m.lower)),
        }
    }

    /// An element whose only content is a `name` attribute.
    fn named(&mut self, depth: usize, tag: &str, name: &str) {
        self.open(depth, tag);
        self.text("name", name);
        self.close(depth, tag);
    }

    /// A tagged value (`key` set) or one item of a list value.
    fn tag_value(&mut self, depth: usize, tag: &str, key: Option<&str>, value: &TagValue) {
        self.open(depth, tag);
        match value {
            TagValue::Str(_) => self.text("type", "str"),
            TagValue::Int(_) => self.text("type", "int"),
            TagValue::Bool(_) => self.text("type", "bool"),
            TagValue::Real(_) => self.text("type", "real"),
            TagValue::List(_) => self.text("type", "list"),
        }
        match value {
            TagValue::Str(s) => self.text("value", s),
            TagValue::Int(i) => self.raw("value", format_args!("{i}")),
            TagValue::Bool(b) => self.flag("value", *b),
            TagValue::Real(r) => self.raw("value", format_args!("{r:?}")),
            TagValue::List(_) => {}
        }
        if let Some(key) = key {
            self.text("key", key);
        }
        for item in value.as_list().unwrap_or_default() {
            self.tag_value(depth + 1, "UML:Value", None, item);
        }
        self.close(depth, tag);
    }

    /// One `UML:Element`: common attributes, the kind's attributes,
    /// then stereotypes, tagged values and the kind's children.
    fn element(&mut self, e: &Element) {
        const DEPTH: usize = 3;
        let core = e.core();
        self.open(DEPTH, "UML:Element");
        self.id("xmi.id", e.id());
        self.text("kind", e.kind().kind_name());
        self.text("name", e.name());
        self.text("visibility", word(&VISIBILITY, core.visibility));
        if let Some(owner) = e.owner() {
            self.id("owner", owner);
        }
        if !core.doc.is_empty() {
            self.text("doc", &core.doc);
        }
        match e.kind() {
            ElementKind::Class(c) => {
                self.flag("isAbstract", c.is_abstract);
                self.flag("isActive", c.is_active);
            }
            ElementKind::Attribute(a) => {
                self.ty("type", a.ty);
                self.mult("multiplicity", a.multiplicity);
                self.flag("isStatic", a.is_static);
                self.flag("isReadOnly", a.is_read_only);
                if let Some(default) = &a.default {
                    self.text("default", default);
                }
            }
            ElementKind::Operation(o) => {
                self.ty("returnType", o.return_type);
                self.flag("isStatic", o.is_static);
                self.flag("isAbstract", o.is_abstract);
                self.flag("isQuery", o.is_query);
            }
            ElementKind::Parameter(p) => {
                self.ty("type", p.ty);
                self.text("direction", word(&DIRECTION, p.direction));
            }
            ElementKind::Generalization(g) => {
                self.id("child", g.child);
                self.id("parent", g.parent);
            }
            ElementKind::Dependency(d) => {
                self.id("client", d.client);
                self.id("supplier", d.supplier);
            }
            ElementKind::Constraint(c) => {
                self.id("constrained", c.constrained);
                self.text("body", &c.body);
            }
            ElementKind::Package(_)
            | ElementKind::Interface(_)
            | ElementKind::DataType(_)
            | ElementKind::Enumeration(_)
            | ElementKind::Association(_) => {}
        }
        for s in &core.stereotypes {
            self.named(DEPTH + 1, "UML:Stereotype", s);
        }
        for (key, value) in &core.tags {
            self.tag_value(DEPTH + 1, "UML:TaggedValue", Some(key), value);
        }
        match e.kind() {
            ElementKind::Enumeration(en) => {
                for literal in &en.literals {
                    self.named(DEPTH + 1, "UML:Literal", literal);
                }
            }
            ElementKind::Association(a) => {
                for end in &a.ends {
                    self.open(DEPTH + 1, "UML:End");
                    self.text("role", &end.role);
                    self.id("class", end.class);
                    self.mult("multiplicity", end.multiplicity);
                    self.flag("navigable", end.navigable);
                    self.text("aggregation", word(&AGGREGATION, end.aggregation));
                    self.close(DEPTH + 1, "UML:End");
                }
            }
            _ => {}
        }
        self.close(DEPTH, "UML:Element");
    }
}

/// Exports a model as an XMI document string (see the module docs for
/// the byte-identity contract).
pub fn export_model(model: &Model) -> String {
    // ~150 bytes per element on the benchmark models.
    let out = String::with_capacity(256 + 160 * model.len());
    let mut w = XmiWriter { out, unsealed: false };
    w.out.push_str(concat!(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n",
        "<XMI xmi.version=\"1.2\" xmlns:UML=\"org.omg.xmi.namespace.UML\">\n",
        "  <XMI.header>\n",
        "    <XMI.documentation exporter=\"comet-xmi\"/>\n",
        "  </XMI.header>\n",
        "  <XMI.content>\n",
    ));
    w.open(2, "UML:Model");
    w.text("name", model.name());
    w.id("root", model.root());
    for e in model.iter() {
        w.element(e);
    }
    w.close(2, "UML:Model");
    w.out.push_str("  </XMI.content>\n</XMI>\n");
    w.out
}

fn attr_bool(node: &XmlNode, key: &str) -> Result<bool, XmiError> {
    node.get_attr(key)
        .unwrap_or("false")
        .parse()
        .map_err(|_| XmiError::Bad(format!("boolean `{key}`")))
}

fn parse_element(node: &XmlNode) -> Result<Element, XmiError> {
    let id = parse_id(node.get_attr("xmi.id").ok_or_else(|| XmiError::Missing("xmi.id".into()))?)?;
    let kind_name = node.get_attr("kind").ok_or_else(|| XmiError::Missing("kind".into()))?;
    let mut core = ElementCore::new(
        node.get_attr("name").unwrap_or_default(),
        node.get_attr("owner").map(parse_id).transpose()?,
    );
    core.visibility =
        parse_word(&VISIBILITY, node.get_attr("visibility").unwrap_or("public"), "visibility")?;
    core.doc = node.get_attr("doc").unwrap_or_default().to_owned();
    for s in node.find_children("UML:Stereotype") {
        core.apply_stereotype(
            s.get_attr("name").ok_or_else(|| XmiError::Missing("stereotype name".into()))?,
        );
    }
    for t in node.find_children("UML:TaggedValue") {
        let key = t.get_attr("key").ok_or_else(|| XmiError::Missing("tag key".into()))?;
        core.set_tag(key, parse_tag_value(t)?);
    }
    let attr = |key: &str| -> Result<&str, XmiError> {
        node.get_attr(key)
            .ok_or_else(|| XmiError::Missing(format!("attribute `{key}` on {kind_name}")))
    };
    let kind = match kind_name {
        "Package" => ElementKind::Package(PackageData::default()),
        "Interface" => ElementKind::Interface(InterfaceData::default()),
        "DataType" => ElementKind::DataType(DataTypeData::default()),
        "Class" => ElementKind::Class(ClassData {
            is_abstract: attr_bool(node, "isAbstract")?,
            is_active: attr_bool(node, "isActive")?,
        }),
        "Enumeration" => ElementKind::Enumeration(EnumerationData {
            literals: node
                .find_children("UML:Literal")
                .map(|l| {
                    l.get_attr("name")
                        .map(str::to_owned)
                        .ok_or_else(|| XmiError::Missing("literal name".into()))
                })
                .collect::<Result<_, _>>()?,
        }),
        "Attribute" => ElementKind::Attribute(AttributeData {
            ty: parse_type(attr("type")?)?,
            multiplicity: parse_mult(attr("multiplicity")?)?,
            is_static: attr_bool(node, "isStatic")?,
            is_read_only: attr_bool(node, "isReadOnly")?,
            default: node.get_attr("default").map(str::to_owned),
        }),
        "Operation" => ElementKind::Operation(OperationData {
            return_type: parse_type(attr("returnType")?)?,
            is_static: attr_bool(node, "isStatic")?,
            is_abstract: attr_bool(node, "isAbstract")?,
            is_query: attr_bool(node, "isQuery")?,
        }),
        "Parameter" => ElementKind::Parameter(ParameterData {
            ty: parse_type(attr("type")?)?,
            direction: parse_word(&DIRECTION, attr("direction")?, "direction")?,
        }),
        "Association" => {
            let ends: Vec<AssociationEnd> =
                node.find_children("UML:End").map(parse_end).collect::<Result<_, _>>()?;
            let [a, b]: [AssociationEnd; 2] = ends
                .try_into()
                .map_err(|_| XmiError::Bad("association needs exactly two ends".into()))?;
            ElementKind::Association(AssociationData { ends: [a, b] })
        }
        "Generalization" => ElementKind::Generalization(GeneralizationData {
            child: parse_id(attr("child")?)?,
            parent: parse_id(attr("parent")?)?,
        }),
        "Dependency" => ElementKind::Dependency(DependencyData {
            client: parse_id(attr("client")?)?,
            supplier: parse_id(attr("supplier")?)?,
        }),
        "Constraint" => ElementKind::Constraint(ConstraintData {
            constrained: parse_id(attr("constrained")?)?,
            body: attr("body")?.to_owned(),
        }),
        other => return Err(XmiError::Bad(format!("element kind `{other}`"))),
    };
    Ok(Element::new(id, core, kind))
}

/// Imports a model from an XMI document string.
///
/// # Errors
/// Fails on malformed XML, unknown structure, or a model that does not
/// validate.
pub fn import_model(source: &str) -> Result<Model, XmiError> {
    let doc = parse_xml(source)?;
    if doc.name != "XMI" {
        return Err(XmiError::Missing("XMI document element".into()));
    }
    let content =
        doc.find_child("XMI.content").ok_or_else(|| XmiError::Missing("XMI.content".into()))?;
    let model_node =
        content.find_child("UML:Model").ok_or_else(|| XmiError::Missing("UML:Model".into()))?;
    let name = model_node.get_attr("name").ok_or_else(|| XmiError::Missing("model name".into()))?;
    let root = parse_id(
        model_node.get_attr("root").ok_or_else(|| XmiError::Missing("model root".into()))?,
    )?;
    let elements: Vec<Element> =
        model_node.find_children("UML:Element").map(parse_element).collect::<Result<_, _>>()?;
    Model::from_parts(name, root, elements).map_err(|violations| {
        XmiError::Invalid(violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; "))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_model::sample::{auction_pim, banking_pim, synthetic};

    #[test]
    fn banking_round_trip() {
        let m = banking_pim();
        let xml = export_model(&m);
        let back = import_model(&xml).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn auction_round_trip() {
        let m = auction_pim();
        assert_eq!(import_model(&export_model(&m)).unwrap(), m);
    }

    #[test]
    fn synthetic_round_trip() {
        let m = synthetic(30, 2, 2);
        assert_eq!(import_model(&export_model(&m)).unwrap(), m);
    }

    #[test]
    fn stereotypes_tags_and_docs_survive() {
        let mut m = banking_pim();
        let bank = m.find_class("Bank").unwrap();
        m.apply_stereotype(bank, "Remote").unwrap();
        m.set_tag(bank, "comet.dist.node", "server").unwrap();
        m.set_tag(bank, "count", 42i64).unwrap();
        m.set_tag(bank, "flag", true).unwrap();
        m.set_tag(bank, "list", TagValue::List(vec![TagValue::Int(1), TagValue::Str("x".into())]))
            .unwrap();
        m.element_mut(bank).unwrap().core_mut().doc = "the bank <&> 'entity'".into();
        m.mark_concern(bank, "distribution").unwrap();
        let back = import_model(&export_model(&m)).unwrap();
        assert_eq!(m, back);
        let bank2 = back.find_class("Bank").unwrap();
        assert_eq!(back.concern_of(bank2), Some("distribution"));
    }

    #[test]
    fn enumeration_and_interface_round_trip() {
        let mut m = Model::new("m");
        m.add_enumeration(m.root(), "Color", vec!["RED".into(), "BLUE".into()]).unwrap();
        m.add_interface(m.root(), "Printable").unwrap();
        m.add_data_type(m.root(), "Money").unwrap();
        assert_eq!(import_model(&export_model(&m)).unwrap(), m);
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(matches!(import_model("<html/>"), Err(XmiError::Missing(_))));
        assert!(matches!(import_model("not xml"), Err(XmiError::Xml(_))));
        // Dangling owner reference fails validation.
        let bad = r##"<XMI xmi.version="1.2"><XMI.content>
            <UML:Model name="m" root="#0">
              <UML:Element xmi.id="#0" kind="Package" name="m"/>
              <UML:Element xmi.id="#1" kind="Class" name="A" owner="#99"/>
            </UML:Model></XMI.content></XMI>"##;
        assert!(matches!(import_model(bad), Err(XmiError::Invalid(_))));
        // Unknown kind.
        let bad2 = r##"<XMI xmi.version="1.2"><XMI.content>
            <UML:Model name="m" root="#0">
              <UML:Element xmi.id="#0" kind="Widget" name="m"/>
            </UML:Model></XMI.content></XMI>"##;
        assert!(matches!(import_model(bad2), Err(XmiError::Bad(_))));
    }

    #[test]
    fn export_contains_xmi_structure() {
        let xml = export_model(&banking_pim());
        assert!(xml.starts_with("<?xml"));
        assert!(xml.contains("xmi.version=\"1.2\""));
        assert!(xml.contains("XMI.header"));
        assert!(xml.contains("UML:Model name=\"bank\""));
        assert!(xml.contains("kind=\"Class\" name=\"Account\""));
    }
}
